(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. V) on the simulated GeForce 8800 GTS 512, plus the
   II quality of the degradation ladder (BENCH_quality.json).  The
   compiler's own speed is measured by perfbench/.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- table1 table2 fig10 fig11 ilpstats coalesce resil
*)

open Streamit

let arch = Gpusim.Arch.geforce_8800_gts_512

(* Compile results are shared across experiments. *)
type compiled_bench = {
  entry : Benchmarks.Registry.entry;
  graph : Graph.t;
  swp : Swp_core.Compile.compiled;
  swpnc : Swp_core.Compile.compiled option;
}

let compile_all () =
  List.map
    (fun (e : Benchmarks.Registry.entry) ->
      let graph = Flatten.flatten (e.stream ()) in
      let swp =
        match Swp_core.Compile.compile graph with
        | Ok c -> c
        | Error m -> failwith (e.name ^ ": " ^ m)
      in
      let swpnc =
        match
          Swp_core.Compile.compile ~scheme:Swp_core.Compile.Swp_non_coalesced
            graph
        with
        | Ok c -> Some c
        | Error _ -> None
      in
      { entry = e; graph; swp; swpnc })
    Benchmarks.Registry.all

let speedup_of cb cycles =
  match
    Swp_core.Executor.speedup ~arch ~graph:cb.graph
      ~gpu_cycles_per_steady:cycles ()
  with
  | Ok s -> s
  | Error m -> failwith m

let swp_speedup cb ~coarsening c =
  let cn = Swp_core.Compile.recoarsen c coarsening in
  speedup_of cb (Swp_core.Executor.time_swp cn).Swp_core.Executor.cycles_per_steady

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let line () = print_endline (String.make 78 '-')

(* --- Table I: benchmark suite --- *)

let table1 benches =
  print_endline "\n=== Table I: Benchmarks Evaluated ===";
  line ();
  Printf.printf "%-12s %8s %8s %10s %10s  %s\n" "Benchmark" "Filters"
    "(paper)" "Peeking" "(paper)" "Description";
  line ();
  List.iter
    (fun cb ->
      let e = cb.entry in
      Printf.printf "%-12s %8d %8d %10d %10d  %s\n" e.name
        (Benchmarks.Registry.our_filters e)
        e.paper_filters
        (Benchmarks.Registry.our_peeking e)
        e.paper_peeking e.description)
    benches;
  line ();
  print_endline
    "note: our re-implementations are somewhat coarser-grained than the\n\
     StreamIt 2.1.1 sources (fewer but heavier filters); peeking counts\n\
     match Table I exactly for Filterbank and FMRadio."

(* --- Table II: buffer requirements of SWP8 --- *)

let table2 benches =
  print_endline "\n=== Table II: Buffer requirements (bytes), SWP8 ===";
  line ();
  Printf.printf "%-12s %16s %16s %8s\n" "Benchmark" "ours (SWP8)" "paper" "ratio";
  line ();
  List.iter
    (fun cb ->
      let c8 = Swp_core.Compile.recoarsen cb.swp 8 in
      let b = c8.Swp_core.Compile.sizing.Swp_core.Buffer_layout.total_bytes in
      Printf.printf "%-12s %16d %16d %8.2f\n" cb.entry.name b
        cb.entry.paper_buffer_bytes
        (float_of_int b /. float_of_int cb.entry.paper_buffer_bytes))
    benches;
  line ()

(* --- Figure 10: SWPNC vs Serial vs SWP8 --- *)

let fig10 benches =
  print_endline
    "\n=== Figure 10: speedup over single-threaded CPU (SWPNC / Serial / SWP8) ===";
  line ();
  Printf.printf "%-12s %10s %10s %10s\n" "Benchmark" "SWPNC" "Serial" "SWP8";
  line ();
  let cols = ref ([], [], []) in
  List.iter
    (fun cb ->
      let c8 = Swp_core.Compile.recoarsen cb.swp 8 in
      let swp8 = swp_speedup cb ~coarsening:8 cb.swp in
      let serial =
        match
          Swp_core.Executor.time_serial
            ~batch:(64 * cb.swp.Swp_core.Compile.config.Swp_core.Select.scale)
            cb.graph
            ~budget_bytes:c8.Swp_core.Compile.sizing.Swp_core.Buffer_layout.total_bytes
        with
        | Ok st -> speedup_of cb st.Swp_core.Executor.cycles_per_steady
        | Error m -> failwith m
      in
      let swpnc =
        match cb.swpnc with
        | Some c -> swp_speedup cb ~coarsening:8 c
        | None -> nan
      in
      let a, b, c = !cols in
      cols := (swpnc :: a, serial :: b, swp8 :: c);
      Printf.printf "%-12s %10.2f %10.2f %10.2f\n" cb.entry.name swpnc serial swp8)
    benches;
  line ();
  let a, b, c = !cols in
  Printf.printf "%-12s %10.2f %10.2f %10.2f\n" "GeoMean" (geomean a) (geomean b)
    (geomean c);
  line ();
  print_endline
    "expected shape (paper): SWP8 wins everywhere except DCT and MatrixMult,\n\
     where the Serial SAS baseline is slightly ahead; SWPNC collapses except\n\
     where per-filter working sets fit in shared memory."

(* --- Figure 11: coarsening sweep --- *)

let fig11 benches =
  print_endline "\n=== Figure 11: SWP coarsening sweep (SWP1/4/8/16) ===";
  line ();
  Printf.printf "%-12s %9s %9s %9s %9s\n" "Benchmark" "SWP" "SWP4" "SWP8" "SWP16";
  line ();
  let acc = Array.make 4 [] in
  List.iter
    (fun cb ->
      let sp = List.map (fun n -> swp_speedup cb ~coarsening:n cb.swp) [ 1; 4; 8; 16 ] in
      List.iteri (fun i s -> acc.(i) <- s :: acc.(i)) sp;
      match sp with
      | [ a; b; c; d ] ->
        Printf.printf "%-12s %9.2f %9.2f %9.2f %9.2f\n" cb.entry.name a b c d
      | _ -> assert false)
    benches;
  line ();
  Printf.printf "%-12s %9.2f %9.2f %9.2f %9.2f\n" "GeoMean" (geomean acc.(0))
    (geomean acc.(1)) (geomean acc.(2)) (geomean acc.(3));
  line ();
  print_endline "expected shape (paper): gains plateau between SWP4 and SWP8."

(* --- ILP statistics (Sec. V-B text) --- *)

let ilpstats benches =
  print_endline "\n=== ILP / II-search statistics (Sec. V-B) ===";
  line ();
  Printf.printf "%-12s %10s %10s %10s %9s %8s %s\n" "Benchmark" "instances"
    "II bound" "achieved" "relax%" "attempts" "solver";
  line ();
  List.iter
    (fun cb ->
      let st = cb.swp.Swp_core.Compile.search_stats in
      Printf.printf "%-12s %10d %10d %10d %9.1f %8d %s\n" cb.entry.name
        (Swp_core.Instances.num_instances cb.swp.Swp_core.Compile.config)
        st.Swp_core.Ii_search.lower_bound st.Swp_core.Ii_search.achieved_ii
        (100.0 *. st.Swp_core.Ii_search.relaxation)
        st.Swp_core.Ii_search.attempts
        (if st.Swp_core.Ii_search.used_exact then "exact ILP" else "heuristic"))
    benches;
  line ();
  print_endline "per-attempt solver effort (candidate II / solver / result):";
  List.iter
    (fun cb ->
      let st = cb.swp.Swp_core.Compile.search_stats in
      Printf.printf "  %s:\n" cb.entry.name;
      List.iter
        (fun (a : Swp_core.Ii_search.attempt) ->
          Format.printf "    %a@." Swp_core.Ii_search.pp_attempt a)
        st.Swp_core.Ii_search.attempt_log)
    benches;
  line ();
  (* exact-vs-heuristic cross check on a small graph *)
  print_endline "exact ILP cross-check (2 SMs, 2-filter multirate graph):";
  let a =
    Kernel.Build.(
      Kernel.make_filter ~name:"A" ~pop:1 ~push:2 [ push pop; push (f 0.0) ])
  in
  let b =
    Kernel.Build.(
      Kernel.make_filter ~name:"B" ~pop:3 ~push:1 [ push (pop +: pop +: pop) ])
  in
  let g = Flatten.flatten (Ast.pipeline "ab" [ Ast.Filter a; Ast.Filter b ]) in
  (match
     ( Swp_core.Compile.compile ~num_sms:2
         ~solver:(Swp_core.Ii_search.Exact 4000) g,
       Swp_core.Compile.compile ~num_sms:2 ~solver:Swp_core.Ii_search.Heuristic g )
   with
  | Ok ce, Ok ch ->
    Printf.printf "  exact II=%d, heuristic II=%d (bound %d)\n"
      ce.Swp_core.Compile.schedule.Swp_core.Swp_schedule.ii
      ch.Swp_core.Compile.schedule.Swp_core.Swp_schedule.ii
      ce.Swp_core.Compile.search_stats.Swp_core.Ii_search.lower_bound
  | Error m, _ | _, Error m -> Printf.printf "  cross-check failed: %s\n" m);
  line ()

(* --- Coalescing ablation (Sec. IV-D / Figs. 8-9) --- *)

let coalesce_ablation () =
  print_endline
    "\n=== Ablation: buffer-layout coalescing (warp transactions per firing) ===";
  line ();
  Printf.printf "%-8s %18s %24s\n" "rate" "natural layout" "shuffled layout (eq. 10)";
  line ();
  List.iter
    (fun rate ->
      let nat =
        Gpusim.Coalesce.transactions_per_firing arch ~rate ~threads:512
          ~shuffled:false
      in
      let shf =
        Gpusim.Coalesce.transactions_per_firing arch ~rate ~threads:512
          ~shuffled:true
      in
      Printf.printf "%-8d %12d trans %18d trans  (%.1fx fewer)\n" rate nat shf
        (float_of_int nat /. float_of_int shf))
    [ 1; 2; 4; 8; 16; 64 ];
  line ();
  print_endline "shared-memory bank-conflict degrees (16 banks, Fig. 8):";
  List.iter
    (fun stride ->
      Printf.printf "  stride %-3d -> degree %d\n" stride
        (Gpusim.Coalesce.shared_bank_conflict_degree arch ~tid_to_index:(fun t ->
             t * stride)))
    [ 1; 2; 4; 8; 16 ];
  line ()

(* --- Degradation-ladder quality vs budget (BENCH_quality.json) --- *)

(* Every registry benchmark compiled under a descending ladder of
   work-unit budgets, down to zero.  The compiler must return Ok at
   every rung — the quality column records which rung of the
   exact/refined/heuristic/fallback ladder paid for it, and the achieved II
   quantifies what the budget bought. *)
(* achieved-over-bound gap, in percent of the bound *)
let gap_pct (st : Swp_core.Ii_search.stats) =
  if st.Swp_core.Ii_search.lower_bound <= 0 then 0.0
  else
    100.0
    *. float_of_int
         (st.Swp_core.Ii_search.achieved_ii - st.Swp_core.Ii_search.lower_bound)
    /. float_of_int st.Swp_core.Ii_search.lower_bound

let resil_bench () =
  print_endline "\n=== Quality vs work budget (degradation ladder) ===";
  line ();
  let budgets =
    [ None; Some 100_000; Some 1_000; Some 100; Some 25; Some 10; Some 0 ]
  in
  let bname = function None -> "unlimited" | Some b -> string_of_int b in
  Printf.printf "%-12s %10s %10s %10s %10s %8s %9s\n" "Benchmark" "budget"
    "quality" "II" "bound" "gap%" "attempts";
  line ();
  let rows =
    List.concat_map
      (fun (e : Benchmarks.Registry.entry) ->
        let g = Flatten.flatten (e.stream ()) in
        List.map
          (fun budget ->
            match Swp_core.Compile.compile ?budget ~coarsening:8 g with
            | Error m -> failwith (e.name ^ ": " ^ m)
            | Ok c ->
              let st = c.Swp_core.Compile.search_stats in
              let q =
                Swp_core.Compile.quality_name c.Swp_core.Compile.quality
              in
              Printf.printf "%-12s %10s %10s %10d %10d %8.2f %9d\n" e.name
                (bname budget) q st.Swp_core.Ii_search.achieved_ii
                st.Swp_core.Ii_search.lower_bound
                (gap_pct st) st.Swp_core.Ii_search.attempts;
              (e.name, budget, q, st))
          budgets)
      Benchmarks.Registry.all
  in
  line ();
  (* the achieved-over-bound gap per row is the headline metric the
     portfolio search and LNS refinement drive down *)
  let oc = open_out "BENCH_quality.json" in
  Printf.fprintf oc
    "{\n\
    \  \"note\": \"II quality per benchmark and budget: gap_pct = \
     100*(achieved_ii - lower_bound)/lower_bound against the sharpened \
     combinatorial (and, on small problems, LP/cutting-plane) lower \
     bound; quality records the degradation-ladder rung \
     (exact/refined/heuristic/degraded)\",\n\
    \  \"rows\": [\n";
  List.iteri
    (fun i (name, budget, q, (st : Swp_core.Ii_search.stats)) ->
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"budget\": %s, \"quality\": \"%s\", \
         \"achieved_ii\": %d, \"lower_bound\": %d, \"gap_pct\": %.3f, \
         \"attempts\": %d}%s\n"
        name
        (match budget with None -> "null" | Some b -> string_of_int b)
        q st.Swp_core.Ii_search.achieved_ii st.Swp_core.Ii_search.lower_bound
        (gap_pct st) st.Swp_core.Ii_search.attempts
        (if i = List.length rows - 1 then "" else ",")
    )
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote BENCH_quality.json (%d rows)\n" (List.length rows)

(* --- Command line --- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* the paper's tables share one compile of the registry *)
  let benches = lazy (compile_all ()) in
  let paper f () = f (Lazy.force benches) in
  (* in run order; no section name runs them all *)
  let sections =
    [
      ("table1", paper table1);
      ("table2", paper table2);
      ("fig10", paper fig10);
      ("fig11", paper fig11);
      ("ilpstats", paper ilpstats);
      ("coalesce", coalesce_ablation);
      ("resil", resil_bench);
    ]
  in
  List.iter
    (fun a ->
      if not (List.mem_assoc a sections) then begin
        Printf.eprintf "error: unknown section %S (sections: %s)\n" a
          (String.concat " " (List.map fst sections));
        exit 2
      end)
    args;
  List.iter
    (fun (name, run) -> if args = [] || List.mem name args then run ())
    sections
