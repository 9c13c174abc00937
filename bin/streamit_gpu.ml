(* streamit_gpu: command-line driver for the StreamIt-to-GPU compiler.

   Subcommands:
     info     <bench|file.str>   graph structure, rates, schedules
     profile  <bench|file.str>   Fig. 6 profile table + selected configuration
     compile  <bench|file.str>   full pipeline; prints schedule and buffers
     emit     <bench|file.str>   generated CUDA source on stdout
     run      <bench|file.str>   interpret N steady states, print outputs
     speedup  <bench|file.str>   SWP/SWPNC/Serial speedups vs the CPU model
     trace    <bench|file.str>   full pipeline under span tracing; Chrome JSON
     sweep    <bench|file.str>   compile at several SM counts (--sms 2,4,6,8)
     report   <bench|file.str>   compile flight record: bounds, attempts, spend
     list                        available built-in benchmarks

   Every compiling subcommand (compile, emit, buffers, run, speedup,
   trace, sweep, fuzz, report) accepts --metrics to dump the metrics
   registry snapshot after the command; compile/speedup/trace/sweep/fuzz/
   report accept --jobs N to compile on an N-domain work pool
   (byte-identical results to the serial pipeline). *)

open Cmdliner
open Streamit

let arch = Gpusim.Arch.geforce_8800_gts_512

let load_stream spec =
  match Benchmarks.Registry.find spec with
  | Some e ->
    (* builtin construction plays the role of parsing; give it the same
       span name so traces show a uniform front end *)
    let stream =
      Obs.Trace.with_span "parse"
        ~attrs:[ ("builtin", Obs.Trace.Str e.Benchmarks.Registry.name) ]
        e.Benchmarks.Registry.stream
    in
    Ok (stream, Some e)
  | None ->
    if Sys.file_exists spec && Sys.is_directory spec then
      Error (Printf.sprintf "'%s' is a directory, not a .str file" spec)
    else if Sys.file_exists spec then begin
      try
        let ic = open_in_bin spec in
        let src = really_input_string ic (in_channel_length ic) in
        close_in ic;
        try Ok (Frontend.Parser.parse_program src, None) with
        | Frontend.Parser.Parse_error (m, l, c) ->
          Error (Printf.sprintf "%s:%d:%d: %s" spec l c m)
        | Frontend.Lexer.Lex_error (m, l, c) ->
          Error (Printf.sprintf "%s:%d:%d: %s" spec l c m)
      with Sys_error m ->
        (* unreadable path: a directory, bad permissions, ... *)
        Error m
    end
    else
      Error
        (Printf.sprintf
           "'%s' is neither a built-in benchmark (try 'list') nor a file" spec)

let with_graph spec f =
  match load_stream spec with
  | Error m ->
    Printf.eprintf "error: %s\n" m;
    1
  | Ok (stream, entry) -> (
    match Ast.validate stream with
    | Error m ->
      Printf.eprintf "invalid stream: %s\n" m;
      1
    | Ok () -> f (Flatten.flatten stream) entry)

let spec_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"PROGRAM" ~doc:"Built-in benchmark name or .str file.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the metrics registry snapshot after the command.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Compile with an $(docv)-domain work pool (profiling sweep, \
           configuration selection, speculative II probing).  Results are \
           guaranteed byte-identical to the serial (N=1) pipeline.")

let with_jobs jobs f =
  if jobs < 1 then begin
    Printf.eprintf "error: --jobs must be at least 1 (got %d)\n" jobs;
    1
  end
  else begin
    Par.Pool.set_jobs jobs;
    f ()
  end

let with_coarsening n f =
  if n < 1 then begin
    Printf.eprintf "error: --coarsening must be at least 1 (got %d)\n" n;
    1
  end
  else f ()

(* --- flags shared by the compiling subcommands --- *)

let coarsen_arg =
  Arg.(value & opt int 8 & info [ "coarsening"; "n" ] ~doc:"SWPn coarsening factor.")

let deadline_arg =
  Arg.(
    value & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock deadline for the whole compilation pipeline.  When it \
           runs out, behavior follows $(b,--on-budget).  Nondeterministic; \
           not covered by the byte-identical --jobs guarantee.")

let budget_arg =
  Arg.(
    value & opt (some int) None
    & info [ "budget" ] ~docv:"WORK"
        ~doc:
          "Deterministic work-unit budget for the II search (simplex pivots \
           + branch-and-bound nodes + one per attempt).  0 skips the search \
           entirely.  Results stay byte-identical across --jobs widths.")

let on_budget_arg =
  Arg.(
    value
    & opt (enum [ ("degrade", `Degrade); ("fail", `Fail) ]) `Degrade
    & info [ "on-budget" ] ~docv:"POLICY"
        ~doc:
          "What to do when the deadline or budget runs out: $(b,degrade) \
           (default) falls back to a guaranteed-valid serial schedule at a \
           relaxed II; $(b,fail) exits with a structured diagnostic.")

let lns_rounds_arg =
  Arg.(
    value & opt int 12
    & info [ "lns-rounds" ] ~docv:"N"
        ~doc:
          "Large-neighborhood refinement probes run below the first feasible \
           II after the search succeeds (0 disables refinement).  Probes are \
           deterministic and charged to the same work-unit ledger as the \
           search.")

(* The flags compile, speedup, report, sweep and trace share, parsed by
   one term; [lns_rounds] is [None] for a subcommand without
   --lns-rounds (trace). *)
type compile_opts = {
  coarsening : int;
  jobs : int;
  deadline : float option;
  budget : int option;
  on_budget : [ `Degrade | `Fail ];
  lns_rounds : int option;
}

let compile_opts_term ~lns =
  let mk coarsening jobs deadline budget on_budget lns_rounds =
    { coarsening; jobs; deadline; budget; on_budget; lns_rounds }
  in
  Term.(
    const mk $ coarsen_arg $ jobs_arg $ deadline_arg $ budget_arg
    $ on_budget_arg
    $ if lns then const Option.some $ lns_rounds_arg else const None)

(* Validate the shared flags once, in a fixed order (each misuse prints
   one [error:] line and exits 1), set the pool width, then run [f]. *)
let with_compile_opts o f =
  with_jobs o.jobs @@ fun () ->
  with_coarsening o.coarsening @@ fun () ->
  if (match o.budget with Some b -> b < 0 | None -> false) then begin
    Printf.eprintf "error: --budget must be >= 0 work units\n";
    1
  end
  else if (match o.deadline with Some d -> d <= 0.0 | None -> false) then begin
    Printf.eprintf "error: --deadline must be positive seconds\n";
    1
  end
  else
    match o.lns_rounds with
    | Some r when r < 0 ->
      Printf.eprintf "error: --lns-rounds must be >= 0 (got %d)\n" r;
      1
    | _ -> f ()

let compile_with ?num_sms ?scheme o g =
  Swp_core.Compile.compile ?num_sms ?scheme ~coarsening:o.coarsening
    ?deadline:o.deadline ?budget:o.budget ?lns_rounds:o.lns_rounds
    ~on_budget:o.on_budget g

let dump_metrics metrics code =
  if metrics then Format.printf "%a@?" Obs.Metrics.pp_text ();
  code

(* --- list --- *)

let list_cmd =
  let doc = "List the built-in benchmark programs (Table I)." in
  let run () =
    List.iter
      (fun (e : Benchmarks.Registry.entry) ->
        Printf.printf "%-12s %s\n" e.name e.description)
      Benchmarks.Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* --- info --- *)

let info_cmd =
  let doc = "Show graph structure, steady-state rates and buffer bounds." in
  let run spec =
    with_graph spec (fun g entry ->
        Format.printf "%a@." Graph.pp g;
        (match Sdf.steady_state g with
        | Error m -> Format.printf "steady state: %s@." m
        | Ok r ->
          Format.printf "repetition vector:";
          Array.iteri
            (fun v k -> Format.printf " %s=%d" (Graph.name g v) k)
            r.Sdf.reps;
          Format.printf "@.input/steady state: %d tokens, output: %d tokens@."
            (Sdf.input_tokens g r) (Sdf.output_tokens g r);
          let sas = Schedule.sas g r in
          let ml = Schedule.min_latency g r in
          Format.printf "buffering: SAS %d bytes, min-latency %d bytes@."
            (Schedule.buffer_bytes g sas)
            (Schedule.buffer_bytes g ml));
        (match entry with
        | Some e ->
          Format.printf "Table I: %d filters (paper: %d), %d peeking (paper: %d)@."
            (Benchmarks.Registry.our_filters e)
            e.Benchmarks.Registry.paper_filters
            (Benchmarks.Registry.our_peeking e)
            e.Benchmarks.Registry.paper_peeking
        | None -> ());
        0)
  in
  Cmd.v (Cmd.info "info" ~doc) Term.(const run $ spec_arg)

(* --- profile --- *)

let profile_cmd =
  let doc =
    "Run the profiling phase (Fig. 6) and configuration selection (Fig. 7)."
  in
  let run spec =
    with_graph spec (fun g _ ->
        match Sdf.steady_state g with
        | Error m ->
          Printf.eprintf "error: %s\n" m;
          1
        | Ok rates ->
          let data = Swp_core.Profile.run arch g ~mode:Swp_core.Profile.Coalesced in
          Printf.printf
            "profile grid: regs in {16,20,32,64} x threads in {128,256,384,512}\n";
          Printf.printf "%-24s" "node";
          List.iter
            (fun th -> Printf.printf "  t=%-10d" th)
            data.Swp_core.Profile.thread_options;
          print_newline ();
          for v = 0 to Graph.num_nodes g - 1 do
            Printf.printf "%-24s" (Graph.name g v);
            List.iter
              (fun th ->
                let t =
                  Swp_core.Profile.time_of data ~node:v ~regs:16 ~threads:th
                in
                if t = infinity then Printf.printf "  %-12s" "inf"
                else Printf.printf "  %-12.0f" t)
              data.Swp_core.Profile.thread_options;
            print_newline ()
          done;
          (match Swp_core.Select.select g rates data with
          | Ok cfg -> Format.printf "%a@." (Swp_core.Select.pp_config g) cfg
          | Error m -> Printf.printf "selection failed: %s\n" m);
          0)
  in
  Cmd.v (Cmd.info "profile" ~doc) Term.(const run $ spec_arg)

(* --- compile --- *)

let target_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("cuda", Kir.Ir.Cuda);
             ("wgsl", Kir.Ir.Wgsl);
             ("opencl", Kir.Ir.Opencl);
             ("metal", Kir.Ir.Metal);
           ])
        Kir.Ir.Cuda
    & info [ "target" ] ~docv:"BACKEND"
        ~doc:
          "Codegen backend: $(b,cuda) (default), $(b,wgsl), $(b,opencl) or \
           $(b,metal).  The schedule is backend-independent; only the \
           printed kernel changes.")

let compile_cmd =
  let doc = "Compile through the full pipeline of Fig. 5; print the schedule." in
  let run spec o target metrics =
    with_compile_opts o @@ fun () ->
    dump_metrics metrics
    @@ with_graph spec (fun g _ ->
           match compile_with o g with
           | Error m ->
             Printf.eprintf "error: compile: %s\n" m;
             1
           | Ok c ->
             Format.printf "%a@." Swp_core.Compile.pp_summary c;
             Format.printf "II search:@.";
             List.iter
               (fun a -> Format.printf "  %a@." Swp_core.Ii_search.pp_attempt a)
               c.Swp_core.Compile.search_stats.Swp_core.Ii_search.attempt_log;
             Format.printf "%a@."
               (Swp_core.Swp_schedule.pp g)
               c.Swp_core.Compile.schedule;
             let gt = Swp_core.Executor.time_swp c in
             Printf.printf
               "executor: II=%d cycles (bus bound %d), kernel=%d cycles, %.1f \
                cycles/steady state\n"
               gt.Swp_core.Executor.ii_cycles gt.Swp_core.Executor.bus_cycles
               gt.Swp_core.Executor.kernel_cycles
               gt.Swp_core.Executor.cycles_per_steady;
             (* codegen for the selected target, structurally linted; the
                kernel itself goes to `emit`, this is the health line *)
             (match
                Kir.Backend.emit_checked target (Kir.Lower.lower c)
              with
             | Ok src ->
               Printf.printf "codegen: %s ok, %d lines\n"
                 (Kir.Ir.target_name target)
                 (List.length (String.split_on_char '\n' src));
               0
             | Error e ->
               Printf.eprintf "error: codegen: %s\n" e;
               1))
  in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(
      const run $ spec_arg $ compile_opts_term ~lns:true $ target_arg
      $ metrics_arg)

(* --- emit --- *)

let emit_cmd =
  let doc =
    "Emit the generated kernel program on stdout (Sec. IV-C); --target \
     selects the backend."
  in
  let run spec n target metrics =
    with_coarsening n @@ fun () ->
    dump_metrics metrics
    @@ with_graph spec (fun g _ ->
           match Swp_core.Compile.compile ~coarsening:n g with
           | Error m ->
             Printf.eprintf "error: compile: %s\n" m;
             1
           | Ok c ->
             print_string (Kir.Backend.emit_compiled target c);
             0)
  in
  Cmd.v (Cmd.info "emit" ~doc)
    Term.(const run $ spec_arg $ coarsen_arg $ target_arg $ metrics_arg)

(* --- run --- *)

let iters_arg =
  Arg.(value & opt int 1 & info [ "iters"; "i" ] ~doc:"Steady states to execute.")

let max_out_arg =
  Arg.(value & opt int 32 & info [ "max-output" ] ~doc:"Output tokens to print.")

let run_cmd =
  let doc = "Interpret the program on the reference interpreter." in
  let run spec iters max_out metrics =
    dump_metrics metrics
    @@ with_graph spec (fun g entry ->
           let input =
             match entry with
             | Some e -> e.Benchmarks.Registry.input
             | None -> fun i -> Types.VFloat (float_of_int (i mod 16))
           in
           let out = Interp.run_steady_states g ~input ~iters in
           Printf.printf "%d output tokens" (List.length out);
           List.iteri
             (fun i v ->
               if i < max_out then begin
                 if i mod 8 = 0 then Printf.printf "\n  ";
                 Printf.printf "%-10s" (Types.string_of_value v)
               end)
             out;
           if List.length out > max_out then Printf.printf "\n  ...";
           print_newline ();
           0)
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ spec_arg $ iters_arg $ max_out_arg $ metrics_arg)

(* --- buffers --- *)

let buffers_cmd =
  let doc = "Per-channel buffer sizing of the SWPn schedule (Table II detail)." in
  let run spec n metrics =
    with_coarsening n @@ fun () ->
    dump_metrics metrics
    @@ with_graph spec (fun g _ ->
        match Swp_core.Compile.compile ~coarsening:n g with
        | Error m ->
          Printf.eprintf "error: compile: %s\n" m;
          1
        | Ok c ->
          let sz = c.Swp_core.Compile.sizing in
          Printf.printf "SWP%d buffers: %d bytes total, pipeline depth %d\n\n" n
            sz.Swp_core.Buffer_layout.total_bytes
            sz.Swp_core.Buffer_layout.stages;
          Printf.printf "%-28s %-28s %12s\n" "producer" "consumer" "bytes";
          List.iter
            (fun ((e : Graph.edge), bytes) ->
              Printf.printf "%-28s %-28s %12d\n"
                (Printf.sprintf "%s.%d" (Graph.name g e.Graph.src) e.Graph.src_port)
                (Printf.sprintf "%s.%d" (Graph.name g e.Graph.dst) e.Graph.dst_port)
                bytes)
            sz.Swp_core.Buffer_layout.per_edge;
          0)
  in
  Cmd.v (Cmd.info "buffers" ~doc)
    Term.(const run $ spec_arg $ coarsen_arg $ metrics_arg)

(* --- speedup --- *)

let speedup_cmd =
  let doc = "Report SWP / SWPNC / Serial speedups over the CPU model (Fig. 10)." in
  let run spec o metrics =
    with_compile_opts o @@ fun () ->
    let n = o.coarsening in
    dump_metrics metrics
    @@ with_graph spec (fun g _ ->
        match compile_with o g with
        | Error m ->
          Printf.eprintf "error: compile: %s\n" m;
          1
        | Ok c ->
          if c.Swp_core.Compile.quality = Swp_core.Compile.Degraded then
            Printf.printf "note: degraded schedule (budget/deadline hit)\n";
          let sp cycles =
            match
              Swp_core.Executor.speedup ~arch ~graph:g
                ~gpu_cycles_per_steady:cycles ()
            with
            | Ok s -> s
            | Error m -> failwith m
          in
          let gt = Swp_core.Executor.time_swp c in
          Printf.printf "SWP%-3d : %6.2fx\n" n
            (sp gt.Swp_core.Executor.cycles_per_steady);
          (match
             compile_with ~scheme:Swp_core.Compile.Swp_non_coalesced o g
           with
          | Ok cn ->
            let gtn = Swp_core.Executor.time_swp cn in
            Printf.printf "SWPNC  : %6.2fx\n"
              (sp gtn.Swp_core.Executor.cycles_per_steady)
          | Error m -> Printf.printf "SWPNC  : failed (%s)\n" m);
          (match
             Swp_core.Executor.time_serial
               ~batch:(64 * c.Swp_core.Compile.config.Swp_core.Select.scale)
               g
               ~budget_bytes:
                 c.Swp_core.Compile.sizing.Swp_core.Buffer_layout.total_bytes
           with
          | Ok st ->
            Printf.printf "Serial : %6.2fx (batch %d steady states)\n"
              (sp st.Swp_core.Executor.cycles_per_steady)
              st.Swp_core.Executor.batch
          | Error m -> Printf.printf "Serial : failed (%s)\n" m);
          0)
  in
  Cmd.v (Cmd.info "speedup" ~doc)
    Term.(
      const run $ spec_arg $ compile_opts_term ~lns:true $ metrics_arg)

(* --- trace --- *)

let out_arg =
  Arg.(
    value & opt string "trace.json"
    & info [ "out"; "o" ] ~docv:"FILE"
        ~doc:"Chrome trace-event JSON output file.")

let trace_cmd =
  let doc =
    "Run the full pipeline (parse, flatten, profile, select, II search, \
     buffer layout, codegen, execute) with span tracing enabled; write \
     Chrome trace-event JSON (load at ui.perfetto.dev) and print the span \
     tree."
  in
  let run spec o out metrics =
    with_compile_opts o @@ fun () ->
    Obs.Trace.reset ();
    Obs.Metrics.reset ();
    Obs.Trace.enable ();
    let code =
      with_graph spec (fun g _ ->
          match compile_with o g with
          | Error m ->
            Printf.eprintf "error: compile: %s\n" m;
            1
          | Ok c ->
            ignore (Kir.Backend.emit_compiled Kir.Ir.Cuda c);
            let gt = Swp_core.Executor.time_swp c in
            Printf.printf "II=%d cycles, %.1f cycles/steady state\n"
              gt.Swp_core.Executor.ii_cycles
              gt.Swp_core.Executor.cycles_per_steady;
            0)
    in
    Obs.Trace.disable ();
    (* The trace is written whatever the compile's outcome: a failed or
       degraded compile is exactly the one worth inspecting, and every
       span is closed on the exception path (Fun.protect), so the JSON
       is always well-formed. *)
    match
      let oc = open_out out in
      output_string oc (Obs.Trace.to_chrome_json ());
      close_out oc
    with
    | () ->
      Format.printf "%a@?" Obs.Trace.pp_tree ();
      Printf.printf "wrote %s\n" out;
      dump_metrics metrics code
    | exception Sys_error m ->
      Printf.eprintf "error: %s\n" m;
      1
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ spec_arg $ compile_opts_term ~lns:false $ out_arg
      $ metrics_arg)

(* --- fuzz --- *)

let fuzz_cmd =
  let doc =
    "Differential fuzzing: generate random stream programs and cross-check \
     the reference interpreter, the device functional simulator and an \
     independent schedule replay token-for-token, plus the schedule, \
     buffer-layout and timing invariants.  Failing programs are shrunk and \
     pretty-printed; exits 1 if any seed fails."
  in
  let seeds_arg =
    Arg.(
      value & opt int 50
      & info [ "seeds"; "n" ] ~docv:"N" ~doc:"Number of random programs.")
  in
  let base_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "base-seed" ] ~docv:"SEED"
          ~doc:"First seed; seeds SEED .. SEED+N-1 are run.")
  in
  let iters_arg =
    Arg.(
      value & opt int 2
      & info [ "iters" ] ~docv:"ITERS"
          ~doc:"Macro steady-state iterations each oracle executes.")
  in
  let run seeds base_seed iters jobs faults deadline metrics =
    if seeds <= 0 then begin
      Printf.eprintf "error: --seeds must be positive (got %d)\n" seeds;
      1
    end
    else if jobs < 1 then begin
      Printf.eprintf "error: --jobs must be at least 1 (got %d)\n" jobs;
      1
    end
    else if (match deadline with Some d -> d <= 0.0 | None -> false) then begin
      Printf.eprintf "error: --deadline must be positive seconds\n";
      1
    end
    else if faults then begin
      if jobs > 1 then begin
        Printf.eprintf
          "error: fuzz --faults is serial (fault arming is process-global); \
           drop --jobs\n";
        1
      end
      else begin
        let stats, failures = Check.Fault_fuzz.run ~base_seed ~seeds () in
        List.iter
          (fun f -> Format.printf "FAIL %a@." Check.Fault_fuzz.pp_failure f)
          failures;
        Format.printf "%a@." Check.Fault_fuzz.pp_stats stats;
        dump_metrics metrics (if failures = [] then 0 else 1)
      end
    end
    else begin
      let stats, failures =
        Check.Fuzz.run ~iters ~base_seed ~seeds ~jobs ?deadline ()
      in
      List.iter
        (fun f -> Format.printf "FAIL %a@.@." Check.Fuzz.pp_failure f)
        failures;
      Format.printf "%a@." Check.Fuzz.pp_stats stats;
      dump_metrics metrics (if failures = [] then 0 else 1)
    end
  in
  let fuzz_jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Shard the seed range across an $(docv)-domain pool.  Outcomes \
             are identical to the serial run: the same seeds, the same \
             failures, in the same order.")
  in
  let faults_arg =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "Fault-injection mode: arm one deterministic fault per seed \
             (site and hit index derived from the seed) and assert every \
             compile ends in a validated — possibly degraded — schedule or \
             a structured diagnostic, never a crash.  Serial only.")
  in
  let fuzz_deadline_arg =
    Arg.(
      value & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Stop starting new seeds after this many wall-clock seconds; \
             unstarted seeds are reported as cancelled, not dropped.")
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ seeds_arg $ base_seed_arg $ iters_arg $ fuzz_jobs_arg
      $ faults_arg $ fuzz_deadline_arg $ metrics_arg)

(* --- report --- *)

let report_cmd =
  let doc =
    "Compile and print the flight-recorder report: which lower bound was \
     binding (RecMII / ResMII / sharp / LP), the full II-search attempt \
     timeline with the winning portfolio arm, per-stage work-unit spend, \
     the configuration-sweep scoreboard, the degradation-rung rationale \
     and the determinism signature."
  in
  let spec_opt_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"PROGRAM" ~doc:"Built-in benchmark name or .str file.")
  in
  let bench_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "bench" ] ~docv:"NAME"
          ~doc:
            "Built-in benchmark to report on (alternative to the positional \
             $(i,PROGRAM)).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the report as compact JSON instead of the human-readable \
             explanation.")
  in
  let report_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Also write the report as compact JSON to $(docv).")
  in
  let timings_arg =
    Arg.(
      value & flag
      & info [ "timings" ]
          ~doc:
            "Include wall-clock timings in the JSON report.  Timings are \
             nondeterministic and excluded by default so reports are \
             byte-identical across runs and --jobs widths.")
  in
  let events_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Record the structured decision-event log during the compile \
             and write it to $(docv) as JSON lines (without timestamps, so \
             the log is deterministic).")
  in
  let openmetrics_arg =
    Arg.(
      value & flag
      & info [ "openmetrics" ]
          ~doc:
            "Print the metrics registry in OpenMetrics/Prometheus text \
             exposition format after the report.")
  in
  let write_file path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  let run spec bench o json out timings events openmetrics metrics =
    match (spec, bench) with
    | None, None ->
      Printf.eprintf "error: give a PROGRAM argument or --bench NAME\n";
      1
    | Some _, Some _ ->
      Printf.eprintf "error: give either PROGRAM or --bench, not both\n";
      1
    | Some s, None | None, Some s -> (
      with_compile_opts o @@ fun () ->
      if events <> None then begin
        Obs.Log.reset ();
        Obs.Log.enable ()
      end;
      let code =
        try
          with_graph s (fun g _ ->
            match compile_with o g with
            | Error m ->
              Printf.eprintf "error: compile: %s\n" m;
              1
            | Ok c ->
              let r = Swp_core.Report.assemble ~program:s c in
              if json then
                print_string (Swp_core.Report.to_json ~timings r ^ "\n")
              else Format.printf "%a@." Swp_core.Report.pp_human r;
              (match out with
              | Some f ->
                write_file f (Swp_core.Report.to_json ~timings r ^ "\n")
              | None -> ());
              (match events with
              | Some f ->
                write_file f (Obs.Log.to_json_lines ~timestamps:false ())
              | None -> ());
              if openmetrics then print_string (Obs.Export.to_openmetrics ());
              0)
        with Sys_error m ->
          Printf.eprintf "error: %s\n" m;
          1
      in
      Obs.Log.disable ();
      dump_metrics metrics code)
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      const run $ spec_opt_arg $ bench_arg $ compile_opts_term ~lns:true
      $ json_arg $ report_out_arg $ timings_arg $ events_arg
      $ openmetrics_arg $ metrics_arg)

(* --- sweep --- *)

let sweep_cmd =
  let doc =
    "Compile at several SM counts (pipeline-scalability ablation): one full \
     compile per count, fanned out over the --jobs pool, reporting II, \
     buffer bytes and speedup per count."
  in
  let sms_arg =
    Arg.(
      value & opt (list int) [ 2; 4; 6; 8 ]
      & info [ "sms" ] ~docv:"N,..." ~doc:"Comma-separated SM counts.")
  in
  let run spec o sms metrics =
    with_compile_opts o @@ fun () ->
    if List.exists (fun s -> s < 1) sms then begin
      Printf.eprintf "error: --sms entries must be at least 1\n";
      1
    end
    else
      dump_metrics metrics
      @@ with_graph spec (fun g _ ->
             let results =
               Par.Pool.map_auto
                 (fun num_sms ->
                   (num_sms, compile_with ~num_sms o g))
                 sms
             in
             Printf.printf "%-8s %10s %8s %14s %10s\n" "SMs" "II" "stages"
               "buffer bytes" "speedup";
             let code = ref 0 in
             List.iter
               (fun (num_sms, r) ->
                 match r with
                 | Error m ->
                   Printf.printf "%-8d error: compile: %s\n" num_sms m;
                   code := 1
                 | Ok c ->
                   let gt = Swp_core.Executor.time_swp c in
                   let sp =
                     match
                       Swp_core.Executor.speedup ~arch ~graph:g
                         ~gpu_cycles_per_steady:
                           gt.Swp_core.Executor.cycles_per_steady ()
                     with
                     | Ok s -> Printf.sprintf "%.2fx" s
                     | Error _ -> "-"
                   in
                   Printf.printf "%-8d %10d %8d %14d %10s\n" num_sms
                     c.Swp_core.Compile.schedule.Swp_core.Swp_schedule.ii
                     c.Swp_core.Compile.sizing.Swp_core.Buffer_layout.stages
                     c.Swp_core.Compile.sizing.Swp_core.Buffer_layout.total_bytes
                     sp)
               results;
             !code)
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const run $ spec_arg $ compile_opts_term ~lns:true $ sms_arg
      $ metrics_arg)

(* --- serve --- *)

(* Long-lived compile daemon: newline-delimited JSON requests on stdin
   (or a Unix socket with --socket), one response line each, backed by
   the content-addressed schedule cache in lib/cache.  The request
   loop itself lives in Cache.Daemon (so the chaos campaign drives the
   production code); the binary supplies flags and the builtin-program
   lookup. *)

let serve_lookup_program p =
  match load_stream p with
  | Error m -> Error m
  | Ok (stream, _) -> (
    match Ast.validate stream with
    | Error m -> Error ("invalid stream: " ^ m)
    | Ok () -> Ok (Flatten.flatten stream))

let serve_cmd =
  let doc =
    "Run the compile daemon: newline-delimited JSON requests on stdin (or a \
     Unix socket), served from a content-addressed schedule cache with \
     admission control, load shedding and crash-safe cache recovery."
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix domain socket instead of stdin/stdout.  The \
             file is created (replacing any stale one) and removed on exit.")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persist cache entries to $(docv) (created if absent) and serve \
             from it across restarts.  Entries are content-addressed and \
             checksummed; a startup scrub quarantines (never deletes) torn \
             or corrupt files into $(docv)/quarantine, and disk errors \
             degrade the daemon to memory-only instead of killing it.")
  in
  let capacity_arg =
    Arg.(
      value & opt int 256
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"In-memory cache entries kept before LRU eviction.")
  in
  let no_warm_arg =
    Arg.(
      value & flag
      & info [ "no-warm" ]
          ~doc:
            "Disable incremental recompilation (per-node profile memo reuse \
             and II-search warm starts on skeleton-equal graphs).")
  in
  let max_inflight_arg =
    Arg.(
      value & opt int 4
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Compile requests allowed to execute concurrently.")
  in
  let queue_cap_arg =
    Arg.(
      value & opt int 16
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Compile requests allowed to wait beyond --max-inflight before \
             the daemon sheds with a deterministic \"overloaded\" error and \
             a retry-after hint.")
  in
  let ledger_cap_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "ledger-cap" ] ~docv:"WORK"
          ~doc:
            "Cap the summed declared work units (request budgets) of \
             outstanding compiles; requests beyond it are shed.  Unlimited \
             when absent.")
  in
  let breaker_threshold_arg =
    Arg.(
      value & opt int 3
      & info [ "breaker-threshold" ] ~docv:"N"
          ~doc:
            "Consecutive compile crashes after which a cache key is \
             poisoned: further requests for it are refused outright until a \
             compile of that key succeeds.")
  in
  let max_line_bytes_arg =
    Arg.(
      value
      & opt int Cache.Daemon.default_max_line_bytes
      & info [ "max-line-bytes" ] ~docv:"BYTES"
          ~doc:
            "Longest request line the daemon will buffer; an over-limit \
             line is answered with a single error response instead of \
             growing an unbounded buffer.")
  in
  let health_arg =
    Arg.(
      value & flag
      & info [ "health" ]
          ~doc:
            "Print one health JSON object (compiler version, cache and \
             scrub state, admission-ledger occupancy, breaker state) and \
             exit instead of serving.")
  in
  let run socket cache_dir capacity no_warm max_inflight queue_cap ledger_cap
      breaker_threshold max_line_bytes health jobs metrics =
    with_jobs jobs @@ fun () ->
    if capacity < 1 then begin
      Printf.eprintf "error: --cache-capacity must be at least 1\n";
      1
    end
    else if max_inflight < 1 then begin
      Printf.eprintf "error: --max-inflight must be at least 1\n";
      1
    end
    else if queue_cap < 0 then begin
      Printf.eprintf "error: --queue-cap must be >= 0\n";
      1
    end
    else if (match ledger_cap with Some c -> c < 1 | None -> false) then begin
      Printf.eprintf "error: --ledger-cap must be at least 1\n";
      1
    end
    else if breaker_threshold < 1 then begin
      Printf.eprintf "error: --breaker-threshold must be at least 1\n";
      1
    end
    else if max_line_bytes < 1024 then begin
      Printf.eprintf "error: --max-line-bytes must be at least 1024\n";
      1
    end
    else
      let service =
        Cache.Service.create ?dir:cache_dir ~capacity ~warm:(not no_warm)
          ~breaker_threshold ()
      in
      let guard =
        Cache.Guard.create ~max_inflight ~queue_cap ?work_cap:ledger_cap ()
      in
      let daemon =
        Cache.Daemon.create ~guard ~max_line_bytes
          ~lookup_program:serve_lookup_program service
      in
      if health then begin
        print_endline
          (Obs.Report.to_string
             (Obs.Report.Obj
                (("status", Obs.Report.Str "ok")
                :: Cache.Daemon.health_json daemon)));
        dump_metrics metrics 0
      end
      else
        dump_metrics metrics
        @@
        match socket with
        | None ->
          ignore (Cache.Daemon.serve_channel daemon stdin stdout);
          0
        | Some path -> Cache.Daemon.serve_socket daemon path
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ cache_dir_arg $ capacity_arg $ no_warm_arg
      $ max_inflight_arg $ queue_cap_arg $ ledger_cap_arg
      $ breaker_threshold_arg $ max_line_bytes_arg $ health_arg $ jobs_arg
      $ metrics_arg)

(* --- chaos --- *)

let chaos_cmd =
  let doc =
    "Run the serve-daemon chaos campaign: per-seed fault injection \
     (store/protocol/admission/compile sites), disk corruption with scrub \
     recovery, overload bursts and a byte-identity audit of every surviving \
     cached artifact, all against the production daemon loop."
  in
  let seeds_arg =
    Arg.(
      value & opt int 50
      & info [ "seeds" ] ~docv:"N" ~doc:"Chaos seeds to run (>= 1).")
  in
  let base_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "base-seed" ] ~docv:"SEED" ~doc:"First seed of the range.")
  in
  let keep_arg =
    Arg.(
      value & flag
      & info [ "keep" ]
          ~doc:
            "Keep each seed's scratch directory (cache, quarantine, event \
             log) instead of deleting it on success.")
  in
  let run seeds base_seed keep metrics =
    if seeds < 1 then begin
      Printf.eprintf "error: --seeds must be at least 1\n";
      1
    end
    else begin
      let stats, failures = Check.Serve_chaos.run ~base_seed ~seeds ~keep () in
      List.iter
        (fun f -> Format.printf "FAIL %a@." Check.Serve_chaos.pp_failure f)
        failures;
      Format.printf "%a@." Check.Serve_chaos.pp_stats stats;
      dump_metrics metrics (if failures = [] then 0 else 1)
    end
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(const run $ seeds_arg $ base_seed_arg $ keep_arg $ metrics_arg)

let () =
  let doc = "StreamIt-to-GPU software-pipelining compiler (CGO 2009 reproduction)" in
  let info = Cmd.info "streamit_gpu" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [
            list_cmd; info_cmd; profile_cmd; compile_cmd; emit_cmd; run_cmd;
            buffers_cmd; speedup_cmd; trace_cmd; fuzz_cmd; sweep_cmd;
            report_cmd; serve_cmd; chaos_cmd;
          ]))
