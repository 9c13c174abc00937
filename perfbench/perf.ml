(* Benchmark entry point.

     perf.exe --workload W --seed N [--seconds S] [--trace 0|1]
     perf.exe work [--check FILE]
     perf.exe compare DIR-A DIR-B
     perf.exe spec

   A run sets the workload up at least three times (the median is
   [setup_s]), then times whole passes until [--seconds] have elapsed;
   it always completes one pass (one of each kind when traced), so
   [--seconds 0] runs exactly that.  [--seconds] is the one knob that
   sizes a run: whatever runs the command named in BENCHMARK.json passes
   it the declared [run_seconds], which is also its default here.  Its
   last stdout line is one JSON
   object: correctness, op counts, and the end-to-end metrics
   (untraced) or the per-layer metrics ([--trace 1]).  A traced run
   alternates untraced and traced passes, so it can also report its own
   overhead.  Every output is checked; the process exits 1 after
   printing when any check failed. *)

module W = Workloads
module L = Layers
module J = Obs.Report

let now = Resil.Clock.now

(* Set-up runs at least [setup_min] times and until [setup_budget_s]
   is spent, so cheap set-ups still yield a steady median. *)
let setup_min = 3
let setup_max = 10
let setup_budget_s = 2.0

type measured = {
  latencies : float list array;  (** untraced op seconds, per input *)
  heaps : float list array;  (** peak major heap words of each untraced op, per input *)
  restarts : (int, float list) Hashtbl.t;
      (** untraced restart seconds, per position in the pass *)
  mutable passes : (bool * int * float) list;
      (** (traced, ops, busy seconds) per pass, newest first *)
  mutable attempted : int;
  mutable failures : string list;  (** newest first *)
  facts : (string, float) Hashtbl.t;  (** sums over traced ops *)
  last_facts : (string * float) list array;  (** per input, latest op *)
  last_counters : (string * int) list array;
  mutable traced_ops : int;
  mutable untraced_ops : int;
  mutable counters : (string * int) list;  (** deltas over traced passes *)
  mutable alloc_words : float;  (** over untraced ops *)
  mutable major_gcs : int;
}

(* The largest major heap seen since the current op started, sampled at
   the end of every major GC cycle. *)
let heap_peak = ref 0

let _alarm : Gc.alarm =
  Gc.create_alarm (fun () -> heap_peak := max !heap_peak (Gc.quick_stat ()).Gc.heap_words)

let add_facts tbl facts =
  List.iter
    (fun (k, v) ->
      Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0))
    facts

(* Passes run until [seconds] elapse, at least one of each kind.  With
   [trace], even-numbered passes run untraced and odd-numbered ones
   traced. *)
let measure ~name (w : W.t) ~seconds ~trace ~per_op_counters =
  let n = Array.length w.W.labels in
  let m =
    {
      latencies = Array.make n [];
      heaps = Array.make n [];
      restarts = Hashtbl.create 8;
      passes = [];
      attempted = 0;
      failures = [];
      facts = Hashtbl.create 32;
      last_facts = Array.make n [];
      last_counters = Array.make n [];
      traced_ops = 0;
      untraced_ops = 0;
      counters = List.map (fun (k, _) -> (k, 0)) (L.read_counters ());
      alloc_words = 0.0;
      major_gcs = 0;
    }
  in
  let kinds = if trace then 2 else 1 in
  let t_start = now () in
  let pass = ref 0 in
  let more () = !pass < kinds || now () -. t_start < seconds in
  while more () do
    let traced = trace && !pass mod 2 = 1 in
    let c0 = L.read_counters () in
    let busy = ref 0.0 and ops = ref 0 and restarts = ref 0 in
    if traced then Obs.Trace.enable ();
    List.iter
      (function
        | W.Reset f -> f ()
        | W.Restart f ->
          let t0 = now () in
          f ();
          let dt = now () -. t0 in
          busy := !busy +. dt;
          if not traced then
            Hashtbl.replace m.restarts !restarts
              (dt :: Option.value (Hashtbl.find_opt m.restarts !restarts) ~default:[]);
          incr restarts
        | W.Op i ->
          let before = if per_op_counters then L.read_counters () else [] in
          let g0 = Gc.quick_stat () in
          heap_peak := g0.Gc.heap_words;
          let t0 = now () in
          let o =
            if traced then
              Obs.Trace.with_span
                ~attrs:
                  [
                    ("workload", Obs.Trace.Str name);
                    ("input", Obs.Trace.Str w.W.labels.(i));
                    ("op", Obs.Trace.Int !ops);
                  ]
                L.op
                (fun () -> W.run_op w ~traced i)
            else W.run_op w ~traced i
          in
          let dt = now () -. t0 in
          let g1 = Gc.quick_stat () in
          busy := !busy +. dt;
          incr ops;
          if not traced then begin
            m.alloc_words <-
              m.alloc_words
              +. (g1.Gc.minor_words -. g0.Gc.minor_words)
              +. (g1.Gc.major_words -. g0.Gc.major_words)
              -. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
            m.major_gcs <- m.major_gcs + (g1.Gc.major_collections - g0.Gc.major_collections);
            m.heaps.(i) <- float_of_int (max !heap_peak g1.Gc.heap_words) :: m.heaps.(i)
          end;
          if per_op_counters then
            m.last_counters.(i) <- L.counter_delta ~before ~after:(L.read_counters ());
          m.attempted <- m.attempted + 1;
          (match o.W.check () with
          | Ok () -> ()
          | Error e -> m.failures <- (w.W.labels.(i) ^ ": " ^ e) :: m.failures);
          m.last_facts.(i) <- o.W.facts;
          if traced then add_facts m.facts o.W.facts
          else m.latencies.(i) <- dt :: m.latencies.(i))
      (w.W.next_pass ());
    Obs.Trace.disable ();
    if traced then begin
      m.traced_ops <- m.traced_ops + !ops;
      m.counters <-
        List.map2
          (fun (k, acc) (_, d) -> (k, acc + d))
          m.counters
          (L.counter_delta ~before:c0 ~after:(L.read_counters ()))
    end
    else m.untraced_ops <- m.untraced_ops + !ops;
    m.passes <- (traced, !ops, !busy) :: m.passes;
    incr pass
  done;
  m

(* --- end-to-end metrics --- *)

(* The host this was tuned on has slow spells, from a second to minutes
   long, in which an op takes 1.2-1.5x as long.  Every timing below is
   built from per-input medians, so a spell shorter than a run has to
   cover most of an input's samples to move it.  Throughput is the ops
   of the untraced passes over the time those passes take when every op
   and restart costs its input's median; the percentiles are over ops,
   each valued at its input's median.  The peak heap is the largest
   per-input median of an op's peak. *)
let ms s = 1000.0 *. s

let end_to_end ~setup_s m =
  let per_input =
    Array.to_list m.latencies
    |> List.filter (( <> ) [])
    |> List.map (fun xs -> (Stats.median xs, List.length xs))
  in
  let restarts = Hashtbl.fold (fun _ xs acc -> (Stats.median xs, List.length xs) :: acc) m.restarts [] in
  let weighted = List.fold_left (fun acc (v, n) -> acc +. (v *. float_of_int n)) 0.0 in
  let ops = List.fold_left (fun acc (_, n) -> acc + n) 0 per_input in
  let peak_heap_words =
    Array.fold_left (fun acc xs -> if xs = [] then acc else Float.max acc (Stats.median xs)) 0.0 m.heaps
  in
  [
    ("setup_s", setup_s);
    ("throughput_ops_s", float_of_int ops /. (weighted per_input +. weighted restarts));
    ("latency_geomean_ms", Stats.geomean (List.map (fun (v, _) -> ms v) per_input));
    ("latency_p50_ms", ms (Stats.weighted_percentile 50.0 per_input));
    ("latency_p99_ms", ms (Stats.weighted_percentile 99.0 per_input));
    ("peak_heap_mb", peak_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.0);
  ]

(* --- per-layer metrics --- *)

let per_layer m =
  let self = L.self_times (Obs.Trace.roots ()) in
  let ops = float_of_int (max 1 m.traced_ops) in
  let self_total k = Option.value (Hashtbl.find_opt self.L.total_us k) ~default:0.0 in
  let self_mean k =
    match Hashtbl.find_opt self.L.count k with
    | Some c when c > 0 -> self_total k /. float_of_int c
    | _ -> 0.0
  in
  let per_op_ms k = self_total k /. 1000.0 /. ops in
  let fact k = Option.value (Hashtbl.find_opt m.facts k) ~default:0.0 in
  let counter k = float_of_int (List.assoc k m.counters) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let compiles = fact "compiles" in
  let stage_ms =
    List.fold_left
      (fun acc s -> acc +. fact ("swp_core." ^ s ^ "_ms"))
      0.0
      [ "profile"; "select"; "search"; "layout" ]
  in
  let cycles =
    Array.to_list m.last_facts |> List.filter_map (List.assoc_opt "swp_core.gpu_cycles")
  in
  let served =
    counter "cache.serve.hits" +. counter "cache.serve.misses" +. counter "cache.serve.incremental"
  in
  (* The extra [Key.digest] of traced serve ops is not tracing cost. *)
  let rate ~traced ~less_us =
    let ops, busy =
      List.fold_left
        (fun (o, b) (t, ops, busy) -> if t = traced then (o + ops, b +. busy) else (o, b))
        (0, 0.0) m.passes
    in
    float_of_int ops /. (busy -. (less_us /. 1e6))
  in
  let overhead =
    (rate ~traced:false ~less_us:0.0 /. rate ~traced:true ~less_us:(self_total L.digest)) -. 1.0
  in
  let untraced_ops = float_of_int (max 1 m.untraced_ops) in
  let values =
    [
      ("benchmarks.construct_ms", per_op_ms L.construct);
      ("streamit.flatten_ms", per_op_ms L.flatten);
      ("swp_core.compile_other_ms", ((self_total L.compile /. 1000.0) -. stage_ms) /. ops);
      ("swp_core.ii_attempts", ratio (fact "swp_core.ii_attempts") compiles);
      ("swp_core.ii_gap_pct", ratio (fact "swp_core.ii_gap_pct") compiles);
      ("swp_core.lns_useful_ratio", ratio (counter "portfolio.lns_improved") (counter "lns.probes"));
      ( "swp_core.profile_memo_hit_ratio",
        ratio (counter "profile.cache.hits")
          (counter "profile.cache.hits" +. counter "profile.cache.misses") );
      ( "swp_core.profile_node_memo_hit_ratio",
        ratio (counter "profile.node_cache.hits")
          (counter "profile.node_cache.hits" +. counter "profile.node_cache.misses") );
      ("swp_core.gpu_cycles_geomean", if cycles = [] then 0.0 else Stats.geomean cycles);
      ("swp_core.schedule_pp_ms", per_op_ms L.schedule_pp);
      ("swp_core.executor_ms", per_op_ms L.executor);
      ("kir.lower_ms", per_op_ms L.lower);
      ("kir.emit_ms", per_op_ms L.emit);
      ("kir.lint_ms", per_op_ms L.lint);
      ("cache.protocol.parse_request_us", self_mean L.parse_request);
      ("cache.daemon.graph_of_request_us", self_mean L.graph_of_request);
      ("cache.key.digest_us", self_mean L.digest);
      ("cache.service.get_hit_us", self_mean (L.service_get ^ ".hit"));
      ("cache.service.get_miss_ms", self_mean (L.service_get ^ ".miss") /. 1000.0);
      ("cache.service.get_incremental_ms", self_mean (L.service_get ^ ".incremental") /. 1000.0);
      ("cache.protocol.ok_response_us", self_mean L.ok_response);
      ("cache.store.scrub_ms", self_mean L.scrub /. 1000.0);
      ("cache.service.hit_ratio", ratio (counter "cache.serve.hits") served);
      ( "runtime.alloc_mb_per_op",
        m.alloc_words *. float_of_int (Sys.word_size / 8) /. 1048576.0 /. untraced_ops );
      ("runtime.major_gcs_per_op", float_of_int m.major_gcs /. untraced_ops);
      ("trace.attributed_pct", 100.0 *. self.L.attributed);
      ("trace.attributed_p1_pct", 100.0 *. self.L.attributed_p1);
      ("trace.overhead_pct", 100.0 *. overhead);
    ]
  in
  (* the rest are per-op means of a counter delta or an op fact *)
  List.map
    (fun (name, _, _) ->
      match List.assoc_opt name values with
      | Some v -> (name, v)
      | None when List.mem_assoc name m.counters -> (name, counter name /. ops)
      | None -> (name, fact name /. ops))
    Spec.per_layer

(* --- output --- *)

let unit_of name =
  match List.find_opt (fun (n, _, _, _) -> n = name) Spec.end_to_end with
  | Some (_, u, _, _) -> u
  | None ->
    let _, u, _ = List.find (fun (n, _, _) -> n = name) Spec.per_layer in
    u

let result_line m metrics =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (m.failures = []));
         ("attempted", J.Int m.attempted);
         ("failed", J.Int (List.length m.failures));
         ( "metrics",
           J.Obj
             (List.map
                (fun (k, v) ->
                  ( k,
                    J.Obj
                      [
                        ("value", J.Float (if Float.is_finite v then v else 0.0));
                        ("unit", J.Str (unit_of k));
                      ] ))
                metrics) );
       ])

let print_detail ~name ~seed ~setups (w : W.t) m =
  Printf.printf "workload %s  seed %d  setups %s s\n" name seed
    (String.concat " " (List.map (Printf.sprintf "%.3f") setups));
  List.iter
    (fun (traced, ops, busy) ->
      Printf.printf "  pass%s: %d ops in %.3f s\n" (if traced then " (traced)" else "") ops busy)
    (List.rev m.passes);
  Array.iteri
    (fun i xs ->
      if xs <> [] then
        let l = w.W.labels.(i) in
        Printf.printf "  %-60s n=%-4d median %.3f ms\n"
          (if String.length l > 60 then String.sub l 0 57 ^ "..." else l)
          (List.length xs) (ms (Stats.median xs)))
    m.latencies;
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) (List.rev m.failures)

let run ~name ~seed ~seconds ~trace =
  let rec set_up acc w =
    let spent = List.fold_left ( +. ) 0.0 acc and k = List.length acc in
    if k >= setup_max || (k >= setup_min && spent >= setup_budget_s) then (List.rev acc, w)
    else begin
      Option.iter (fun (w : W.t) -> w.W.cleanup ()) w;
      let t0 = now () in
      let x = W.make name ~seed in
      set_up ((now () -. t0) :: acc) (Some x)
    end
  in
  let setups, w = set_up [] None in
  let w = Option.get w in
  let m =
    Fun.protect ~finally:w.W.cleanup (fun () ->
        measure ~name w ~seconds ~trace ~per_op_counters:false)
  in
  print_detail ~name ~seed ~setups w m;
  let metrics =
    if trace then begin
      W.ensure_dir W.work_dir;
      let trace_file = Filename.concat W.work_dir ("trace-" ^ name ^ ".json") in
      Out_channel.with_open_bin trace_file (fun oc ->
          output_string oc (Obs.Trace.to_chrome_json ()));
      Printf.printf "trace written to %s\n" trace_file;
      per_layer m
    end
    else end_to_end ~setup_s:(Stats.median setups) m
  in
  print_endline (result_line m metrics);
  if m.failures <> [] then exit 1

(* --- work counts --- *)

(* Per-input work of one pass of each compile workload, as
   (workload, [(input, [(count, value)], wall capped)]). *)
let work_counts () =
  let facts =
    [
      "swp_core.ii"; "swp_core.profile_work"; "swp_core.select_work"; "swp_core.search_work";
      "swp_core.layout_work"; "kir.kernel_bytes";
    ]
  and counters = [ "lp.pivots"; "lp.bb.nodes"; "rat.tier.promotions" ] in
  List.map
    (fun name ->
      let w = W.make ~warm:false name ~seed:0 in
      let m = measure ~name w ~seconds:0.0 ~trace:false ~per_op_counters:true in
      List.iter (fun f -> Printf.eprintf "FAILED %s\n" f) m.failures;
      if m.failures <> [] then exit 1;
      let row i =
        List.filter_map
          (fun k -> Option.map (fun v -> (k, int_of_float v)) (List.assoc_opt k m.last_facts.(i)))
          facts
        @ List.map (fun k -> (k, List.assoc k m.last_counters.(i))) counters
      in
      let capped i = List.assoc_opt "swp_core.wall_capped" m.last_facts.(i) = Some 1.0 in
      (name, Array.to_list (Array.mapi (fun i label -> (label, row i, capped i)) w.W.labels)))
    [ "cold_compile"; "sm_sweep" ]

(* An II search the wall clock may have cut short ([W.wall_capped])
   leaves everything from the search on to the host's speed: the II it
   lands on, its work, and the layout that follows.  Such an input pins
   only the work done before the search, whether it was capped when the
   baseline was made or is capped in the run that checks it. *)
let before_search = [ "swp_core.profile_work"; "swp_core.select_work" ]
let pinnable ~capped k = (not capped) || List.mem k before_search

(* The baseline pins the pinnable counts that two passes agree on and
   lists the rest under "unpinned". *)
let work_baseline () =
  let a = work_counts () and b = work_counts () in
  J.to_string_indent
    (J.Obj
       (List.map2
          (fun (name, rows_a) (_, rows_b) ->
            ( name,
              J.Obj
                (List.map2
                   (fun (label, ra, capped_a) (_, rb, capped_b) ->
                     let capped = capped_a || capped_b in
                     let stable, moved =
                       List.partition (fun (k, v) -> List.assoc k rb = v && pinnable ~capped k) ra
                     in
                     ( label,
                       J.Obj
                         (List.map (fun (k, v) -> (k, J.Int v)) stable
                         @
                         if moved = [] then []
                         else [ ("unpinned", J.Arr (List.map (fun (k, _) -> J.Str k) moved)) ]) ))
                   rows_a rows_b) ))
          a b))

let work_check path =
  let want = Cache.Protocol.parse (W.read_file path) in
  let diffs =
    List.concat_map
      (fun (name, rows) ->
        List.concat_map
          (fun (label, row, capped) ->
            match J.path [ name; label ] want with
            | Some (J.Obj pinned) ->
              List.filter_map
                (fun (k, v) ->
                  match List.assoc_opt k row with
                  | _ when k = "unpinned" || not (pinnable ~capped k) -> None
                  | Some got when J.Int got = v -> None
                  | got ->
                    Some
                      (Printf.sprintf "%s %s %s: baseline %s, now %s" name label k
                         (J.to_string v)
                         (match got with Some g -> string_of_int g | None -> "absent")))
                pinned
            | _ -> [ Printf.sprintf "%s %s: not in %s" name label path ])
          rows)
      (work_counts ())
  in
  List.iter prerr_endline diffs;
  if diffs <> [] then exit 1 else Printf.printf "work counts match %s\n" path

(* --- command line --- *)

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perf: " ^ m);
      exit 2)
    fmt

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "spec" ] -> print_string (Spec.to_json ())
  | [ "compare"; a; b ] -> exit (Compare.main a b)
  | "work" :: rest -> (
    match rest with
    | [] -> print_string (work_baseline ())
    | [ "--check"; f ] -> work_check f
    | _ -> die "usage: perf.exe work [--check FILE]")
  | args ->
    let workload = ref "" and seed = ref 0 and seconds = ref Spec.run_seconds and trace = ref false in
    let int_arg set s =
      match int_of_string_opt s with Some v -> set v | None -> die "not an integer: %S" s
    in
    let spec =
      [
        ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " W.names);
        ("--seed", Arg.String (int_arg (( := ) seed)), "N input seed");
        ("--seconds", Arg.String (int_arg (( := ) seconds)), "S measure whole passes for S seconds");
        ("--trace", Arg.String (int_arg (fun v -> trace := v <> 0)), "0|1 per-layer metrics");
      ]
    in
    (match
       Arg.parse_argv (Array.of_list ("perf.exe" :: args)) spec
         (fun a -> die "unexpected argument %S" a)
         "perf.exe --workload W --seed N [--seconds S] [--trace 0|1]"
     with
    | () -> ()
    | exception Arg.Bad m -> die "%s" (List.hd (String.split_on_char '\n' m))
    | exception Arg.Help m ->
      print_string m;
      exit 0);
    if not (List.mem !workload W.names) then
      die "--workload must be one of %s" (String.concat ", " W.names);
    run ~name:!workload ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:!trace
