(* Tests for the GPU simulator: architecture feasibility, coalescing
   analysis, register allocation, per-pass timing and the CPU model. *)

open Gpusim
open Streamit

let t name f = Alcotest.test_case name `Quick f
let arch = Arch.geforce_8800_gts_512

let arch_tests =
  [
    t "paper's register/thread feasibility map" (fun () ->
        (* Sec. IV-A: caps 16,20,32,64 allow 512,384,256,128 threads *)
        let feasible r th = Arch.config_feasible arch ~regs_per_thread:r ~threads:th in
        Alcotest.(check bool) "16/512" true (feasible 16 512);
        Alcotest.(check bool) "20/384" true (feasible 20 384);
        Alcotest.(check bool) "20/512" false (feasible 20 512);
        Alcotest.(check bool) "32/256" true (feasible 32 256);
        Alcotest.(check bool) "32/384" false (feasible 32 384);
        Alcotest.(check bool) "64/128" true (feasible 64 128);
        Alcotest.(check bool) "64/256" false (feasible 64 256));
    t "block-size cap" (fun () ->
        Alcotest.(check bool) "513" false
          (Arch.config_feasible arch ~regs_per_thread:4 ~threads:513));
    t "warps" (fun () ->
        Alcotest.(check int) "max" 24 (Arch.max_warps arch);
        Alcotest.(check int) "round" 5 (Arch.threads_to_warps arch 130));
  ]

let coalesce_tests =
  [
    t "unit-stride access coalesces" (fun () ->
        let s =
          Coalesce.analyze_warp arch ~elem_bytes:4 ~tid_to_index:(fun tid -> tid)
        in
        Alcotest.(check bool) "coalesced" true s.Coalesce.coalesced;
        Alcotest.(check int) "trans" 2 s.Coalesce.transactions);
    t "strided access serializes" (fun () ->
        let s =
          Coalesce.analyze_warp arch ~elem_bytes:4 ~tid_to_index:(fun tid ->
              tid * 4)
        in
        Alcotest.(check bool) "uncoalesced" false s.Coalesce.coalesced;
        Alcotest.(check int) "trans" 32 s.Coalesce.transactions;
        Alcotest.(check bool) "padding" true (s.Coalesce.bytes_moved > 32 * 4));
    t "misaligned base breaks coalescing" (fun () ->
        let s =
          Coalesce.analyze_warp arch ~elem_bytes:4 ~tid_to_index:(fun tid ->
              tid + 1)
        in
        Alcotest.(check bool) "uncoalesced" false s.Coalesce.coalesced);
    t "shuffled layout coalesces any rate (Fig. 9)" (fun () ->
        List.iter
          (fun rate ->
            for n = 0 to rate - 1 do
              let s =
                Coalesce.analyze_warp arch ~elem_bytes:4
                  ~tid_to_index:(Coalesce.shuffled_index ~rate ~cluster:128 ~n)
              in
              if not s.Coalesce.coalesced then
                Alcotest.failf "rate %d pos %d uncoalesced" rate n
            done)
          [ 1; 2; 3; 4; 8; 64 ]);
    t "natural layout uncoalesced beyond rate 1 (Fig. 8)" (fun () ->
        let tc rate =
          Coalesce.transactions_per_firing arch ~rate ~threads:128
            ~shuffled:false
        in
        Alcotest.(check int) "rate1" 8 (tc 1);
        Alcotest.(check bool) "rate4" true (tc 4 > 8 * 4));
    t "shuffled transactions scale linearly" (fun () ->
        let tc rate =
          Coalesce.transactions_per_firing arch ~rate ~threads:128 ~shuffled:true
        in
        Alcotest.(check int) "rate1" 8 (tc 1);
        Alcotest.(check int) "rate4" 32 (tc 4));
    t "bank conflicts" (fun () ->
        Alcotest.(check int) "stride1" 1
          (Coalesce.shared_bank_conflict_degree arch ~tid_to_index:(fun t -> t));
        Alcotest.(check int) "stride4" 4
          (Coalesce.shared_bank_conflict_degree arch ~tid_to_index:(fun t ->
               t * 4));
        Alcotest.(check int) "stride16" 16
          (Coalesce.shared_bank_conflict_degree arch ~tid_to_index:(fun t ->
               t * 16)));
    t "cross traffic matched rates equals coalesced" (fun () ->
        let tr, _ = Coalesce.cross_traffic arch ~prod_rate:4 ~cons_rate:4 ~threads:128 in
        (* 4 warps, each touching 4*32*4B = 512B = 16 segments of 32B *)
        Alcotest.(check int) "segments" (4 * 16) tr);
    t "cross traffic small stride is cache-friendly" (fun () ->
        let mismatched, _ =
          Coalesce.cross_traffic arch ~prod_rate:1 ~cons_rate:2 ~threads:128
        in
        let matched, _ =
          Coalesce.cross_traffic arch ~prod_rate:2 ~cons_rate:2 ~threads:128
        in
        Alcotest.(check int) "no extra" matched mismatched);
    t "cross traffic wide scatter pays per element" (fun () ->
        (* consumer rate 1 over producer rate 64: 128-strided addresses *)
        let scat, _ =
          Coalesce.cross_traffic ~cached:false arch ~prod_rate:64 ~cons_rate:1
            ~threads:128
        in
        let coal, _ =
          Coalesce.cross_traffic ~cached:false arch ~prod_rate:1 ~cons_rate:1
            ~threads:128
        in
        Alcotest.(check bool) "worse" true (scat >= 4 * coal));
  ]

(* Oracles for the closed forms: the per-warp simulators they replace.
   [sim_traffic_per_firing] runs [analyze_warp] over every warp access;
   [sim_cross_traffic] collects each access's distinct minimum-size
   segments in a table. *)
let sim_traffic_per_firing (a : Arch.t) ~rate ~threads ~shuffled =
  let warps = Arch.threads_to_warps a threads in
  let trans = ref 0 and bytes = ref 0 in
  for w = 0 to warps - 1 do
    for n = 0 to rate - 1 do
      let tid_to_index tid_in_warp =
        let tid = (w * a.warp_size) + tid_in_warp in
        if shuffled then Coalesce.shuffled_index ~rate ~cluster:128 ~n tid
        else Coalesce.natural_index ~pop_or_push_rate:rate ~n tid
      in
      let s = Coalesce.analyze_warp a ~elem_bytes:Types.elem_size_bytes ~tid_to_index in
      trans := !trans + s.Coalesce.transactions;
      bytes := !bytes + s.Coalesce.bytes_moved
    done
  done;
  (!trans, !bytes)

(* Distinct segments per warp, for warps [0, warps): the pass total
   for [threads] threads is the sum over its first
   [threads_to_warps threads] warps, so one run serves every thread
   count. *)
let sim_cross_traffic ~cached (a : Arch.t) ~prod_rate ~cons_rate ~warps =
  let p = max 1 prod_rate and c = max 1 cons_rate in
  let layout_addr s = Coalesce.shuffled_index ~rate:p ~cluster:128 ~n:(s mod p) (s / p) in
  let seg_elems = max 1 (a.min_transaction_bytes / Types.elem_size_bytes) in
  let half = a.warp_size / 2 in
  let segs = Hashtbl.create 64 in
  let touch s = Hashtbl.replace segs (layout_addr s / seg_elems) () in
  Array.init warps (fun w ->
      if cached then begin
        (* one access: every token of the warp's pass *)
        Hashtbl.clear segs;
        for k = 0 to a.warp_size - 1 do
          for n = 0 to c - 1 do
            touch ((((w * a.warp_size) + k) * c) + n)
          done
        done;
        Hashtbl.length segs
      end
      else begin
        (* one access per half-warp and token position *)
        let distinct = ref 0 in
        for n = 0 to c - 1 do
          for hw = 0 to 1 do
            Hashtbl.clear segs;
            for k = 0 to half - 1 do
              touch ((((w * a.warp_size) + (hw * half) + k) * c) + n)
            done;
            distinct := !distinct + Hashtbl.length segs
          done
        done;
        !distinct
      end)

let oracle_threads = [ 100; 128; 256; 384; 512 ]

(* Every (consumer rate, producer rate, cached) triple the executor
   prices on [g], and every per-firing access rate of its nodes. *)
let priced_rates g =
  let triples =
    Array.to_list g.Graph.nodes
    |> List.concat_map (fun (nd : Graph.node) ->
           let cached =
             match nd.Graph.kind with Graph.NFilter _ -> true | _ -> false
           in
           List.map (fun (c, p) -> (c, p, cached)) (Timing.in_edge_rates g nd.Graph.id))
  in
  let rates =
    List.concat_map (fun e -> [ Graph.production g e; Graph.consumption g e ]) g.Graph.edges
  in
  (triples, rates)

let check_closed_forms ~triples ~rates =
  List.iter
    (fun threads ->
      List.iter
        (fun rate ->
          List.iter
            (fun shuffled ->
              let got = Coalesce.traffic_per_firing arch ~rate ~threads ~shuffled in
              if got <> sim_traffic_per_firing arch ~rate ~threads ~shuffled then
                Alcotest.failf "traffic_per_firing rate=%d threads=%d shuffled=%b" rate
                  threads shuffled)
            [ true; false ])
        rates)
    oracle_threads;
  let max_warps = Arch.threads_to_warps arch (List.fold_left max 0 oracle_threads) in
  List.iter
    (fun (cons_rate, prod_rate, cached) ->
      let per_warp = sim_cross_traffic ~cached arch ~prod_rate ~cons_rate ~warps:max_warps in
      List.iter
        (fun threads ->
          let segs = ref 0 in
          for w = 0 to Arch.threads_to_warps arch threads - 1 do
            segs := !segs + per_warp.(w)
          done;
          let want = (!segs, !segs * arch.Arch.min_transaction_bytes) in
          if Coalesce.cross_traffic ~cached arch ~prod_rate ~cons_rate ~threads <> want then
            Alcotest.failf "cross_traffic p=%d c=%d threads=%d cached=%b" prod_rate
              cons_rate threads cached)
        oracle_threads)
    triples

let dedup l = List.sort_uniq compare l

let closed_form_tests =
  [
    t "closed forms match the simulators on registry and generated rates" (fun () ->
        let graphs =
          List.map
            (fun (e : Benchmarks.Registry.entry) -> Flatten.flatten (e.stream ()))
            Benchmarks.Registry.all
          @ List.init 100 (fun seed -> Flatten.flatten (Check.Gen.stream ~seed ()))
        in
        let triples, rates = List.split (List.map priced_rates graphs) in
        check_closed_forms ~triples:(dedup (List.concat triples))
          ~rates:(dedup (List.concat rates)));
    t "closed forms match the simulators on rates 1..32" (fun () ->
        let r = List.init 32 succ in
        check_closed_forms ~rates:r
          ~triples:
            (List.concat_map
               (fun c ->
                 List.concat_map (fun p -> [ (c, p, true); (c, p, false) ]) r)
               r));
  ]

let regalloc_tests =
  [
    t "no spill under generous cap" (fun () ->
        let f = Kernel.identity () in
        let a = Regalloc.allocate f ~cap:64 in
        Alcotest.(check int) "spill" 0 a.Regalloc.spilled);
    t "spill under tight cap" (fun () ->
        let f = List.hd (Ast.filters (Benchmarks.Des.stream ())) in
        let d = Kernel.estimate_registers f in
        if d > 5 then begin
          let a = Regalloc.allocate f ~cap:5 in
          Alcotest.(check int) "spilled" (d - 5) a.Regalloc.spilled;
          Alcotest.(check int) "accesses" (2 * (d - 5)) a.Regalloc.spill_accesses
        end);
    t "occupancy threads" (fun () ->
        Alcotest.(check int) "16 regs" 512 (Regalloc.occupancy_threads arch ~regs_per_thread:16);
        Alcotest.(check int) "64 regs" 128 (Regalloc.occupancy_threads arch ~regs_per_thread:64);
        Alcotest.(check int) "10 regs caps at SMT" 768
          (Regalloc.occupancy_threads arch ~regs_per_thread:10));
  ]

let node_of_filter f = { Graph.id = 0; name = f.Kernel.name; kind = Graph.NFilter f }

let timing_tests =
  [
    t "infeasible launch yields None" (fun () ->
        let n = node_of_filter (Kernel.identity ()) in
        Alcotest.(check bool) "none" true
          (Timing.pass_of_node arch n ~threads:512 ~regs_cap:20
             ~layout:Timing.Shuffled
          = None));
    t "more threads, more compute cycles" (fun () ->
        let f = List.hd (Ast.filters (Benchmarks.Dct.stream ())) in
        let n = node_of_filter f in
        let p t =
          match Timing.pass_of_node arch n ~threads:t ~regs_cap:16 ~layout:Timing.Shuffled with
          | Some p -> p.Timing.compute_cycles
          | None -> Alcotest.fail "feasible expected"
        in
        Alcotest.(check bool) "monotone" true (p 512 > p 128));
    t "more warps hide more latency" (fun () ->
        let f = Kernel.identity () in
        let n = node_of_filter f in
        let lat t =
          match Timing.pass_of_node arch n ~threads:t ~regs_cap:16 ~layout:Timing.Shuffled with
          | Some p -> p.Timing.latency_cycles
          | None -> Alcotest.fail "feasible expected"
        in
        Alcotest.(check bool) "hiding" true (lat 512 <= lat 32));
    t "natural layout costs more than shuffled" (fun () ->
        let f =
          Kernel.Build.(
            Kernel.make_filter ~name:"r4" ~pop:4 ~push:4
              [ for_ "j" (i 0) (i 4) [ push pop ] ])
        in
        let n = node_of_filter f in
        let bus l =
          match Timing.pass_of_node arch n ~threads:256 ~regs_cap:16 ~layout:l with
          | Some p -> p.Timing.bus_bytes
          | None -> Alcotest.fail "feasible"
        in
        Alcotest.(check bool) "worse" true
          (bus Timing.Natural > 4 * bus Timing.Shuffled));
    t "shared staging requires fit" (fun () ->
        let big =
          Kernel.Build.(
            Kernel.make_filter ~name:"big" ~pop:64 ~push:64
              [ for_ "j" (i 0) (i 64) [ push pop ] ])
        in
        let n = node_of_filter big in
        Alcotest.(check bool) "does not fit at 512" true
          (Timing.pass_of_node arch n ~threads:512 ~regs_cap:16
             ~layout:Timing.Shared_staged
          = None);
        Alcotest.(check bool) "fits at 32" true
          (Timing.pass_of_node arch n ~threads:32 ~regs_cap:16
             ~layout:Timing.Shared_staged
          <> None));
    t "spilling adds traffic" (fun () ->
        let f = List.hd (Ast.filters (Benchmarks.Des.stream ())) in
        let n = node_of_filter f in
        let d = Kernel.estimate_registers f in
        if d > 8 then begin
          let bus cap =
            match
              Timing.pass_of_node arch n ~threads:128 ~regs_cap:cap
                ~layout:Timing.Shuffled
            with
            | Some p -> p.Timing.bus_bytes
            | None -> Alcotest.fail "feasible"
          in
          Alcotest.(check bool) "spill traffic" true (bus 8 > bus 64)
        end);
    t "in_edge_rates reflects graph" (fun () ->
        let g = Flatten.flatten (Benchmarks.Dct.stream ()) in
        (* every node except entry has at least one in-edge pair *)
        Array.iter
          (fun (nd : Graph.node) ->
            let pairs = Timing.in_edge_rates g nd.Graph.id in
            List.iter
              (fun (c, p) ->
                if c <= 0 || p <= 0 then Alcotest.fail "non-positive rate")
              pairs)
          g.Graph.nodes);
  ]

let cpu_tests =
  [
    t "cost scales with work" (fun () ->
        let m = Cpu_model.xeon_2_83ghz in
        let small = Kernel.cost_of_filter (Kernel.identity ()) in
        let big =
          Kernel.cost_of_filter (List.hd (Ast.filters (Benchmarks.Des.stream ())))
        in
        Alcotest.(check bool) "ordered" true
          (Cpu_model.cycles_of_cost m big > Cpu_model.cycles_of_cost m small));
    t "steady state cycles positive for benchmarks" (fun () ->
        List.iter
          (fun (e : Benchmarks.Registry.entry) ->
            let g = Flatten.flatten (e.stream ()) in
            let r = Result.get_ok (Sdf.steady_state g) in
            let c = Cpu_model.steady_state_cycles Cpu_model.xeon_2_83ghz g r in
            if c <= 0.0 then Alcotest.failf "%s: non-positive cycles" e.name)
          Benchmarks.Registry.all);
    t "seconds conversion" (fun () ->
        let m = Cpu_model.xeon_2_83ghz in
        Alcotest.(check (float 1e-12)) "1 GHz-second"
          (1.0 /. 2.83) (Cpu_model.seconds m 1e9));
  ]

let suite =
  arch_tests @ coalesce_tests @ regalloc_tests @ timing_tests @ cpu_tests
  @ closed_form_tests
