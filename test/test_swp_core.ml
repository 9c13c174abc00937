(* Tests for the paper's core contribution: profiling, configuration
   selection, instance/dependence expansion, MII bounds, the ILP and
   heuristic schedulers (cross-validated), buffer layout and the
   end-to-end compile pipeline. *)

open Streamit
open Swp_core

let t name f = Alcotest.test_case name `Quick f
let arch = Gpusim.Arch.geforce_8800_gts_512

let ab_graph () =
  let a =
    Kernel.Build.(
      Kernel.make_filter ~name:"A" ~pop:1 ~push:2
        [ let_ "x" pop; push (v "x"); push (v "x" *: f 2.0) ])
  in
  let b =
    Kernel.Build.(
      Kernel.make_filter ~name:"B" ~pop:3 ~push:1 [ push (pop +: pop +: pop) ])
  in
  Flatten.flatten (Ast.pipeline "ab" [ Ast.Filter a; Ast.Filter b ])

let compiled_ab () = Result.get_ok (Compile.compile (ab_graph ()))

(* --- Profile --- *)

let profile_tests =
  [
    t "profiles full option grid" (fun () ->
        let g = ab_graph () in
        let d = Profile.run arch g ~mode:Profile.Coalesced in
        Alcotest.(check int) "nodes" 2 (Array.length d.Profile.runtimes);
        Alcotest.(check int) "regs" 4 (Array.length d.Profile.runtimes.(0));
        Alcotest.(check int) "threads" 4 (Array.length d.Profile.runtimes.(0).(0)));
    t "infeasible configurations are infinite (Fig. 6 line 5)" (fun () ->
        let g = ab_graph () in
        let d = Profile.run arch g ~mode:Profile.Coalesced in
        (* 64 registers with 512 threads exceeds the register file *)
        Alcotest.(check bool) "inf" true
          (Profile.time_of d ~node:0 ~regs:64 ~threads:512 = infinity);
        Alcotest.(check bool) "finite" true
          (Profile.time_of d ~node:0 ~regs:16 ~threads:512 < infinity));
    t "numfirings divisible by all thread counts" (fun () ->
        let g = ab_graph () in
        let d = Profile.run arch g ~mode:Profile.Coalesced in
        List.iter
          (fun th ->
            Alcotest.(check int) "divisible" 0 (d.Profile.numfirings mod th))
          d.Profile.thread_options);
    t "non-coalesced mode profiles slower or equal" (fun () ->
        let g = Flatten.flatten (Benchmarks.Matrix_mult.stream ()) in
        let dc = Profile.run arch g ~mode:Profile.Coalesced in
        let dn = Profile.run arch g ~mode:Profile.Non_coalesced in
        let any_slower = ref false in
        for v = 0 to Graph.num_nodes g - 1 do
          let c = Profile.time_of dc ~node:v ~regs:16 ~threads:256 in
          let n = Profile.time_of dn ~node:v ~regs:16 ~threads:256 in
          if n > c then any_slower := true;
          if n < c *. 0.99 then
            Alcotest.failf "node %d faster without coalescing" v
        done;
        Alcotest.(check bool) "some penalty" true !any_slower);
  ]

(* --- Select --- *)

let select_tests =
  [
    t "macro repetition vector balances" (fun () ->
        let g = ab_graph () in
        let r = Result.get_ok (Sdf.steady_state g) in
        let reps, scale = Select.macro_reps g r ~threads:[| 512; 512 |] in
        (* k'_v * threads proportional to original reps *)
        Alcotest.(check bool) "balance" true
          (reps.(0) * 512 * 2 = reps.(1) * 512 * 3);
        Alcotest.(check bool) "scale positive" true (scale > 0));
    t "mixed thread counts (paper Fig. 9 example)" (fun () ->
        (* A: 256 threads push 2; B: 128 threads pop 1 -> 1 instance of A,
           4 instances of B per macro steady state *)
        let a =
          Kernel.Build.(
            Kernel.make_filter ~name:"A" ~pop:2 ~push:2 [ push pop; push pop ])
        in
        let b = Kernel.identity () in
        let g = Flatten.flatten (Ast.pipeline "p" [ Ast.Filter a; Ast.Filter b ]) in
        let r = Result.get_ok (Sdf.steady_state g) in
        Alcotest.(check (array int)) "orig" [| 1; 2 |] r.Sdf.reps;
        let reps, _ = Select.macro_reps g r ~threads:[| 256; 128 |] in
        Alcotest.(check (array int)) "macro" [| 1; 4 |] reps);
    t "selection picks a feasible global pair" (fun () ->
        let g = ab_graph () in
        let r = Result.get_ok (Sdf.steady_state g) in
        let d = Profile.run arch g ~mode:Profile.Coalesced in
        match Select.select g r d with
        | Ok cfg ->
          Alcotest.(check bool) "regs in options" true
            (List.mem cfg.Select.regs d.Profile.reg_options);
          Array.iteri
            (fun v th ->
              Alcotest.(check bool) "feasible per node" true
                (Profile.time_of d ~node:v ~regs:cfg.Select.regs ~threads:th
                < infinity);
              Alcotest.(check bool) "within block" true
                (th <= cfg.Select.block_threads))
            cfg.Select.threads
        | Error m -> Alcotest.fail m);
    t "per-node delays positive" (fun () ->
        let c = compiled_ab () in
        Array.iter
          (fun d -> Alcotest.(check bool) "pos" true (d > 0))
          c.Compile.config.Select.delay);
  ]

(* --- Instances / deps / MII --- *)

let instance_tests =
  [
    t "instance expansion and indexing" (fun () ->
        let c = compiled_ab () in
        let cfg = c.Compile.config in
        let insts = Instances.instances cfg in
        Alcotest.(check int) "count" (Instances.num_instances cfg)
          (List.length insts);
        List.iteri
          (fun i inst -> Alcotest.(check int) "dense" i (Instances.index cfg inst))
          insts);
    t "dependences have non-positive jlag" (fun () ->
        let c = compiled_ab () in
        List.iter
          (fun (d : Instances.dep) ->
            Alcotest.(check bool) "jlag<=0" true (d.jlag <= 0))
          (Instances.deps c.Compile.graph c.Compile.config));
    t "dependence covers every consumer instance" (fun () ->
        let c = compiled_ab () in
        let cfg = c.Compile.config in
        let deps = Instances.deps c.Compile.graph cfg in
        (* every instance of B (node 1) must depend on some instance of A *)
        for k = 0 to cfg.Select.reps.(1) - 1 do
          if
            not
              (List.exists
                 (fun (d : Instances.dep) ->
                   d.dst.Instances.node = 1 && d.dst.Instances.k = k)
                 deps)
          then Alcotest.failf "B instance %d has no producer dep" k
        done);
    t "ResMII is total work over SMs" (fun () ->
        let c = compiled_ab () in
        let cfg = c.Compile.config in
        let total = ref 0 in
        Array.iteri
          (fun v k -> total := !total + (k * cfg.Select.delay.(v)))
          cfg.Select.reps;
        Alcotest.(check int) "resmii"
          (Numeric.Intmath.cdiv !total 16)
          (Mii.res_mii cfg ~num_sms:16));
    t "RecMII zero for acyclic benchmarks (footnote 1)" (fun () ->
        let c = compiled_ab () in
        Alcotest.(check int) "recmii" 0 (Mii.rec_mii c.Compile.graph c.Compile.config));
    t "lower bound covers longest delay" (fun () ->
        let c = compiled_ab () in
        let cfg = c.Compile.config in
        let maxd = Array.fold_left max 0 cfg.Select.delay in
        Alcotest.(check bool) "bound" true
          (Mii.lower_bound c.Compile.graph cfg ~num_sms:16 > maxd));
  ]

(* --- Schedulers --- *)

let sched_tests =
  [
    t "heuristic schedule validates" (fun () ->
        let c = compiled_ab () in
        let cfg = c.Compile.config in
        let lb = Mii.lower_bound c.Compile.graph cfg ~num_sms:16 in
        match Heuristic.solve c.Compile.graph cfg ~num_sms:16 ~ii:(2 * lb) with
        | `Schedule s ->
          Alcotest.(check (result unit string)) "valid" (Ok ())
            (Swp_schedule.validate c.Compile.graph s)
        | `Infeasible -> Alcotest.fail "heuristic infeasible at 2x bound");
    t "exact ILP schedule validates and matches heuristic feasibility" (fun () ->
        let c = Result.get_ok (Compile.compile ~num_sms:2 (ab_graph ())) in
        let cfg = c.Compile.config in
        let g = c.Compile.graph in
        let lb = Mii.lower_bound g cfg ~num_sms:2 in
        (* sweep a few candidate IIs; whenever the heuristic succeeds the
           exact solver must also find a schedule *)
        List.iter
          (fun ii ->
            match Heuristic.solve g cfg ~num_sms:2 ~ii with
            | `Schedule _ -> (
              match Ilp.solve ~node_budget:4000 g cfg ~num_sms:2 ~ii with
              | `Schedule s ->
                Alcotest.(check (result unit string)) "ilp valid" (Ok ())
                  (Swp_schedule.validate g s)
              | `Infeasible ->
                Alcotest.failf "ILP infeasible at II=%d but heuristic found one" ii
              | `Budget_exhausted -> ())
            | `Infeasible -> ())
          [ lb; lb + (lb / 10); 2 * lb ]);
    t "ILP constraint structure matches the formulation" (fun () ->
        let c = compiled_ab () in
        let cfg = c.Compile.config in
        let g = c.Compile.graph in
        let num_sms = 2 in
        let insts = Instances.num_instances cfg in
        let deps = Instances.deps g cfg in
        let ndeps = List.length deps in
        let lb = Mii.lower_bound g cfg ~num_sms in
        (match Ilp.build g cfg ~num_sms ~ii:(2 * lb) with
        | Error m -> Alcotest.fail m
        | Ok (p, vm) ->
          (* variables: w (insts x sms) + o + f + one g per non-self dep *)
          let self_deps =
            List.length
              (List.filter
                 (fun (d : Instances.dep) -> d.src = d.dst)
                 deps)
          in
          Alcotest.(check int) "variables"
            ((insts * num_sms) + (2 * insts) + (ndeps - self_deps))
            (Lp.Problem.num_vars p);
          Alcotest.(check int) "w vars" (insts * num_sms) (Hashtbl.length vm.Ilp.w);
          (* constraints: assignment (1) per instance, resource (2) per SM,
             symmetry pin, and per non-self dep: 2 x sms indicator rows (7)
             plus the two systems of (8) *)
          Alcotest.(check int) "constraints"
            (insts + num_sms + 1 + ((ndeps - self_deps) * ((2 * num_sms) + 2))
            + self_deps * 0)
            (Lp.Problem.num_constraints p)));
    t "dependence count bounded by paper's (I/O + 1) per edge" (fun () ->
        (* Sec. III: each edge contributes at most ceil(I/O) + 1 distinct
           constraints per consumer instance *)
        let c = compiled_ab () in
        let cfg = c.Compile.config in
        let g = c.Compile.graph in
        let deps = Instances.deps g cfg in
        List.iter
          (fun (e : Graph.edge) ->
            let o', i', _ = Instances.edge_macro_rates g cfg e in
            let bound =
              cfg.Select.reps.(e.Graph.dst)
              * (Numeric.Intmath.cdiv i' o' + 1)
            in
            let count =
              List.length
                (List.filter
                   (fun (d : Instances.dep) ->
                     d.src.Instances.node = e.Graph.src
                     && d.dst.Instances.node = e.Graph.dst)
                   deps)
            in
            if count > bound then
              Alcotest.failf "edge %d->%d: %d deps > bound %d" e.Graph.src
                e.Graph.dst count bound)
          g.Graph.edges);
    t "ILP infeasible below max delay" (fun () ->
        let c = compiled_ab () in
        let cfg = c.Compile.config in
        let maxd = Array.fold_left max 0 cfg.Select.delay in
        match Ilp.solve c.Compile.graph cfg ~num_sms:16 ~ii:(maxd / 2) with
        | `Infeasible -> ()
        | _ -> Alcotest.fail "expected infeasible");
    t "validator rejects overloaded SM" (fun () ->
        let c = compiled_ab () in
        let s = c.Compile.schedule in
        (* pile every instance onto SM 0 at o=0: breaks (2) and/or deps *)
        let broken =
          {
            s with
            Swp_schedule.entries =
              List.map
                (fun e -> { e with Swp_schedule.sm = 0; o = 0; f = 0 })
                s.Swp_schedule.entries;
          }
        in
        match Swp_schedule.validate c.Compile.graph broken with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "expected validation failure");
    t "validator rejects missing cross-SM separation" (fun () ->
        let c = compiled_ab () in
        let s = c.Compile.schedule in
        (* force all f to 0 while spreading across SMs *)
        let broken =
          {
            s with
            Swp_schedule.entries =
              List.mapi
                (fun i e -> { e with Swp_schedule.sm = i mod 2; f = 0; o = 0 })
                s.Swp_schedule.entries;
          }
        in
        match Swp_schedule.validate c.Compile.graph broken with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "expected validation failure");
    t "ii search achieves bound on trivial graph" (fun () ->
        let g = Flatten.flatten (Ast.Filter (Kernel.identity ())) in
        let c = Result.get_ok (Compile.compile g) in
        Alcotest.(check int) "no relaxation" c.Compile.search_stats.Ii_search.lower_bound
          c.Compile.schedule.Swp_schedule.ii);
    t "heuristic refutes an infeasible packing without climbing" (fun () ->
        (* Generated stream 121 at 16 SMs: at its II bound the ffd and bfd
           packings admit no placement, and the longest-path climb toward
           (n+3)*T ran through some 165k wrap repairs (seconds per call)
           before the climb was confined to one dependence cycle. *)
        let g = Flatten.flatten (Check.Gen.stream ~seed:121 ()) in
        let c = Result.get_ok (Compile.compile g) in
        let cfg = c.Compile.config in
        let ii = c.Compile.search_stats.Ii_search.lower_bound in
        Alcotest.(check int) "bound" 24270680 ii;
        List.iter
          (fun strategy ->
            match Heuristic.solve ~strategy g cfg ~num_sms:16 ~ii with
            | `Infeasible -> ()
            | `Schedule _ ->
              Alcotest.failf "%s schedules seed 121 at its bound"
                (Heuristic.strategy_name strategy))
          [ Heuristic.First_fit; Heuristic.Best_fit ]);
  ]

(* --- Buffer layout --- *)

let layout_tests =
  [
    t "pop map reduces to push map on rate-matched edges" (fun () ->
        for rate = 1 to 8 do
          for n = 0 to rate - 1 do
            for tid = 0 to 255 do
              Alcotest.(check int) "same"
                (Buffer_layout.push_index ~rate ~n ~tid)
                (Buffer_layout.pop_index ~push_rate:rate ~pop_rate:rate ~n ~tid)
            done
          done
        done);
    t "pop map addresses the producer's layout (eq. 11, multirate)" (fun () ->
        (* Consumer popping [i] per firing from a producer pushing [o] per
           firing: token n of consumer firing tid is stream token
           s = tid*i + n, stored at the producer's eq.-(10) address of s. *)
        List.iter
          (fun (o, i) ->
            for tid = 0 to 511 do
              for n = 0 to i - 1 do
                let s = (tid * i) + n in
                Alcotest.(check int) "producer layout"
                  (Buffer_layout.push_index ~rate:o ~n:(s mod o) ~tid:(s / o))
                  (Buffer_layout.pop_index ~push_rate:o ~pop_rate:i ~n ~tid)
              done
            done)
          [ (1, 2); (2, 1); (2, 3); (3, 2); (4, 7); (8, 3) ]);
    t "layout is a bijection on each instance region" (fun () ->
        List.iter
          (fun (push_rate, threads) ->
            let size = push_rate * threads in
            let seen = Array.make size false in
            for s = 0 to size - 1 do
              let a = Buffer_layout.addr_of_token ~push_rate ~threads s in
              if a < 0 || a >= size then
                Alcotest.failf "addr %d out of range (rate %d, threads %d)" a
                  push_rate threads;
              if seen.(a) then Alcotest.failf "collision at %d" a;
              seen.(a) <- true
            done)
          [ (1, 128); (2, 256); (3, 128); (4, 512); (8, 384) ]);
    t "shuffle permutation shape (eq. 9)" (fun () ->
        let spr = 4 in
        (* tokens 0..cluster-1 land cluster apart *)
        Alcotest.(check int) "0" 0 (Buffer_layout.shuffle ~steady_pop_rate:spr 0);
        Alcotest.(check int) "1" spr (Buffer_layout.shuffle ~steady_pop_rate:spr 1);
        Alcotest.(check int) "128" 1
          (Buffer_layout.shuffle ~steady_pop_rate:spr 128));
    t "out-of-range token rejected" (fun () ->
        Alcotest.check_raises "range"
          (Invalid_argument "Buffer_layout.addr_of_token: token out of region")
          (fun () ->
            ignore (Buffer_layout.addr_of_token ~push_rate:2 ~threads:4 8)));
    t "buffer sizing scales with coarsening" (fun () ->
        let c = compiled_ab () in
        let s1 = Buffer_layout.size_buffers c.Compile.graph c.Compile.schedule ~coarsening:1 in
        let s8 = Buffer_layout.size_buffers c.Compile.graph c.Compile.schedule ~coarsening:8 in
        Alcotest.(check bool) "scales" true
          (s8.Buffer_layout.total_bytes > 4 * s1.Buffer_layout.total_bytes));
    t "steady tokens match SDF rates" (fun () ->
        let c = compiled_ab () in
        let g = c.Compile.graph in
        let cfg = c.Compile.config in
        List.iter
          (fun e ->
            let prod =
              cfg.Select.reps.(e.Graph.src)
              * Graph.production g e * cfg.Select.threads.(e.Graph.src)
            in
            Alcotest.(check int) "tokens" prod (Buffer_layout.steady_tokens g cfg e))
          g.Graph.edges);
  ]

(* --- Compile & executors --- *)

let compile_tests =
  [
    t "end-to-end compile of every benchmark" (fun () ->
        List.iter
          (fun (e : Benchmarks.Registry.entry) ->
            match Compile.compile (Flatten.flatten (e.stream ())) with
            | Ok c ->
              Alcotest.(check (result unit string)) e.name (Ok ())
                (Swp_schedule.validate c.Compile.graph c.Compile.schedule)
            | Error m -> Alcotest.fail (e.name ^ ": " ^ m))
          Benchmarks.Registry.all);
    t "recoarsen preserves schedule" (fun () ->
        let c = compiled_ab () in
        let c8 = Compile.recoarsen c 8 in
        Alcotest.(check int) "same II" c.Compile.schedule.Swp_schedule.ii
          c8.Compile.schedule.Swp_schedule.ii;
        Alcotest.(check int) "coarsening" 8 c8.Compile.coarsening);
    t "coarsening monotonically improves throughput" (fun () ->
        let c = compiled_ab () in
        let per n = (Executor.time_swp (Compile.recoarsen c n)).Executor.cycles_per_steady in
        Alcotest.(check bool) "1>=4" true (per 1 >= per 4);
        Alcotest.(check bool) "4>=8" true (per 4 >= per 8);
        Alcotest.(check bool) "8>=16" true (per 8 >= per 16));
    t "executor II at least the scheduled II" (fun () ->
        let c = compiled_ab () in
        let gt = Executor.time_swp c in
        Alcotest.(check bool) "actual >= scheduled" true
          (gt.Executor.ii_cycles >= c.Compile.schedule.Swp_schedule.ii / 2));
    t "serial baseline stays within buffer budget" (fun () ->
        let g = Flatten.flatten (Benchmarks.Bitonic.stream ()) in
        let budget = 1 lsl 22 in
        match Executor.time_serial g ~budget_bytes:budget with
        | Ok st ->
          Alcotest.(check bool) "budget" true (st.Executor.buffer_bytes <= budget);
          Alcotest.(check bool) "positive" true (st.Executor.cycles_per_steady > 0.0)
        | Error m -> Alcotest.fail m);
    t "speedup positive for all benchmarks" (fun () ->
        List.iter
          (fun (e : Benchmarks.Registry.entry) ->
            let g = Flatten.flatten (e.stream ()) in
            let c = Result.get_ok (Compile.compile g) in
            let gt = Executor.time_swp (Compile.recoarsen c 8) in
            match
              Executor.speedup ~arch ~graph:g
                ~gpu_cycles_per_steady:gt.Executor.cycles_per_steady ()
            with
            | Ok s ->
              if s <= 0.0 then Alcotest.failf "%s: non-positive speedup" e.name
            | Error m -> Alcotest.fail m)
          Benchmarks.Registry.all);
    t "SWPNC never beats SWP by more than noise" (fun () ->
        (* the coalesced scheme is the optimized one; allow a small
           tolerance for shared-memory fast paths on tiny working sets *)
        List.iter
          (fun name ->
            let e = Option.get (Benchmarks.Registry.find name) in
            let g = Flatten.flatten (e.stream ()) in
            let per scheme =
              let c = Result.get_ok (Compile.compile ~scheme g) in
              (Executor.time_swp (Compile.recoarsen c 8)).Executor.cycles_per_steady
            in
            let swp = per Compile.Swp_coalesced in
            let swpnc = per Compile.Swp_non_coalesced in
            if swpnc < swp *. 0.9 then
              Alcotest.failf "%s: SWPNC %.1f much faster than SWP %.1f" name
                swpnc swp)
          [ "DCT"; "FFT"; "MatrixMult" ]);
    t "gpusim traffic counters count priced passes, not instances" (fun () ->
        (* [gpusim.warp_accesses.*] and [gpusim.bus_bytes] move once per
           node pass the executor prices; every scheduled instance of a
           node shares that pass. *)
        let counters =
          List.map Obs.Metrics.counter
            [
              "gpusim.warp_accesses.coalesced";
              "gpusim.warp_accesses.uncoalesced";
              "gpusim.bus_bytes";
            ]
        in
        let moved f =
          let before = List.map Obs.Metrics.value counters in
          f ();
          List.map2 (fun c b -> Obs.Metrics.value c - b) counters before
        in
        let g = Flatten.flatten (Benchmarks.Bitonic.stream ()) in
        let c = Result.get_ok (Compile.compile ~scheme:Compile.Swp_non_coalesced g) in
        let entries = c.Compile.schedule.Swp_schedule.entries in
        let nodes =
          List.sort_uniq compare
            (List.map (fun (e : Swp_schedule.entry) -> e.Swp_schedule.inst.Instances.node) entries)
        in
        Alcotest.(check bool) "some node has several instances" true
          (List.length entries > List.length nodes);
        let by_executor = moved (fun () -> ignore (Executor.time_swp c)) in
        let once_per_node =
          moved (fun () ->
              List.iter
                (fun v ->
                  let node = Graph.node c.Compile.graph v in
                  ignore
                    (Gpusim.Timing.pass_of_node
                       ~in_rates:(Gpusim.Timing.in_edge_rates c.Compile.graph v)
                       c.Compile.arch node
                       ~threads:c.Compile.config.Select.threads.(v)
                       ~regs_cap:c.Compile.config.Select.regs
                       ~layout:(Compile.layout_of_node c node)))
                nodes)
        in
        Alcotest.(check bool) "counters moved" true (List.exists (fun d -> d > 0) by_executor);
        Alcotest.(check (list int)) "one pass per node" once_per_node by_executor);
  ]

let suite =
  profile_tests @ select_tests @ instance_tests @ sched_tests
  @ layout_tests @ compile_tests
