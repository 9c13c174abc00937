(* What BENCHMARK.json declares: the command, the workloads and why each
   was chosen, and every metric with its unit, direction and regression
   bound.  [perf.exe spec] prints it; the comparator reads the bounds
   from here. *)

let command = [ "sh"; "perfbench/run.sh" ]
let paths = [ "perfbench" ]
let run_seconds = 20

let workloads =
  [
    ( "cold_compile",
      "User-facing cold CLI compile, 8 programs x 4 targets: KIR lint is ~95% of an op and the II \
       search <1%, so codegen changes show here and search changes should not" );
    ( "sm_sweep",
      "The same programs at 2/4/8/16 SMs without codegen: II search, LP and rationals do ~90% of \
       the work (Bitonic@2, FFT@2), the mirror image of cold_compile" );
    ( "serve_hot",
      "Daemon at steady state on a synthetic mix (uniform picks, not recorded traffic), memory \
       hits only: decode, key digest, reply encoding; key and protocol changes show" );
    ( "serve_churn",
      "Daemon on a synthetic, unverified mix (not recorded traffic): misses with fsynced writes, \
       incremental recompiles, memory and disk hits, LRU eviction, scrub on restart" );
  ]

(* name, unit, lower is better, bound.  The host these were measured on
   has slow spells of seconds to minutes in which the same op takes
   1.2-1.5x as long, so timings get the largest bound allowed. *)
let end_to_end =
  [
    ("setup_s", "s", true, 0.25);
    ("throughput_ops_s", "1/s", false, 0.25);
    ("latency_geomean_ms", "ms", true, 0.25);
    ("latency_p50_ms", "ms", true, 0.25);
    ("latency_p99_ms", "ms", true, 0.25);
    ("peak_heap_mb", "MB", true, 0.2);
  ]

(* name, unit, lower is better *)
let per_layer =
  [
    ("benchmarks.construct_ms", "ms", true);
    ("streamit.flatten_ms", "ms", true);
    ("swp_core.profile_ms", "ms", true);
    ("swp_core.select_ms", "ms", true);
    ("swp_core.search_ms", "ms", true);
    ("swp_core.layout_ms", "ms", true);
    ("swp_core.compile_other_ms", "ms", true);
    ("swp_core.profile_work", "count/op", true);
    ("swp_core.select_work", "count/op", true);
    ("swp_core.search_work", "count/op", true);
    ("swp_core.layout_work", "count/op", true);
    ("swp_core.ii_attempts", "count/op", true);
    ("swp_core.ii_gap_pct", "%", true);
    ("lns.probes", "count/op", true);
    ("swp_core.lns_useful_ratio", "ratio", false);
    ("swp_core.profile_memo_hit_ratio", "ratio", false);
    ("swp_core.profile_node_memo_hit_ratio", "ratio", false);
    ("swp_core.gpu_cycles_geomean", "cycles", true);
    ("lp.pivots", "count/op", true);
    ("lp.solves", "count/op", true);
    ("lp.bb.nodes", "count/op", true);
    ("rat.tier.promotions", "count/op", true);
    ("rat.tier.demotions", "count/op", true);
    ("swp_core.schedule_pp_ms", "ms", true);
    ("swp_core.executor_ms", "ms", true);
    ("kir.lower_ms", "ms", true);
    ("kir.emit_ms", "ms", true);
    ("kir.lint_ms", "ms", true);
    ("kir.kernel_bytes", "bytes/op", true);
    ("cache.protocol.parse_request_us", "us", true);
    ("cache.daemon.graph_of_request_us", "us", true);
    ("cache.key.digest_us", "us", true);
    ("cache.service.get_hit_us", "us", true);
    ("cache.service.get_miss_ms", "ms", true);
    ("cache.service.get_incremental_ms", "ms", true);
    ("cache.protocol.ok_response_us", "us", true);
    ("cache.response_bytes", "bytes/op", true);
    ("cache.store.scrub_ms", "ms", true);
    ("cache.store.mem_hits", "count/op", false);
    ("cache.store.disk_hits", "count/op", false);
    ("cache.store.misses", "count/op", true);
    ("cache.store.evictions", "count/op", true);
    ("cache.serve.hits", "count/op", false);
    ("cache.serve.misses", "count/op", true);
    ("cache.serve.incremental", "count/op", false);
    ("cache.serve.compiles", "count/op", true);
    ("cache.service.hit_ratio", "ratio", false);
    ("runtime.alloc_mb_per_op", "MB/op", true);
    ("runtime.major_gcs_per_op", "count/op", true);
    ("trace.attributed_pct", "%", false);
    ("trace.attributed_p1_pct", "%", false);
    ("trace.overhead_pct", "%", true);
  ]

let to_json () =
  let module J = Obs.Report in
  let better lower = J.Str (if lower then "lower" else "higher") in
  J.to_string_indent
    (J.Obj
       [
         ("command", J.Arr (List.map (fun s -> J.Str s) command));
         ("paths", J.Arr (List.map (fun s -> J.Str s) paths));
         ("run_seconds", J.Int run_seconds);
         ( "workloads",
           J.Arr
             (List.map (fun (name, why) -> J.Obj [ ("name", J.Str name); ("why", J.Str why) ]) workloads)
         );
         ( "end_to_end",
           J.Arr
             (List.map
                (fun (name, unit, lower, bound) ->
                  J.Obj
                    [
                      ("name", J.Str name); ("unit", J.Str unit); ("better", better lower);
                      ("bound", J.Float bound);
                    ])
                end_to_end) );
         ( "per_layer",
           J.Arr
             (List.map
                (fun (name, unit, lower) ->
                  J.Obj [ ("name", J.Str name); ("unit", J.Str unit); ("better", better lower) ])
                per_layer) );
       ])
