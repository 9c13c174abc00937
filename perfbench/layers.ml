(* Per-layer metrics of a traced run.

   The benchmark wraps its own calls into each module's public functions
   in [Obs.Trace] spans named after the layer (see [span_names]).  A
   layer's self time is its span's duration minus the part covered by
   the nearest enclosed benchmark spans; spans the program opens itself
   (compile stages, attempts) are kept in the exported trace but are
   transparent here.  Work counts are deltas of counters the program
   already registers in [Obs.Metrics], plus per-op facts read from
   public return values. *)

(* Span names, one per layer boundary the benchmark crosses.  [op] is
   the root of every timed operation; [scrub] is the root of a serve
   service re-created on its cache directory. *)
let op = "op"
let construct = "benchmarks.construct"
let flatten = "streamit.flatten"
let compile = "swp_core.compile"
let schedule_pp = "swp_core.schedule_pp"
let executor = "swp_core.executor"
let lower = "kir.lower"
let emit = "kir.emit"
let lint = "kir.lint"
let parse_request = "cache.protocol.parse_request"
let graph_of_request = "cache.daemon.graph_of_request"
let digest = "cache.key.digest"
let service_get = "cache.service.get"
let ok_response = "cache.protocol.ok_response"
let scrub = "cache.store.scrub"

let span_names =
  [
    op; construct; flatten; compile; schedule_pp; executor; lower;
    emit; lint; parse_request; graph_of_request; digest; service_get;
    ok_response; scrub;
  ]

(* --- counters --- *)

let counter_names =
  [
    "lp.pivots"; "lp.solves"; "lp.bb.nodes"; "rat.tier.promotions";
    "rat.tier.demotions"; "lns.probes"; "portfolio.lns_improved";
    "profile.cache.hits"; "profile.cache.misses"; "profile.node_cache.hits";
    "profile.node_cache.misses"; "cache.store.mem_hits";
    "cache.store.disk_hits"; "cache.store.misses"; "cache.store.evictions";
    "cache.serve.hits"; "cache.serve.misses"; "cache.serve.incremental";
    "cache.serve.compiles";
  ]

(* Get-or-create returns the handle the owning module bumps. *)
let counters =
  List.map (fun n -> (n, Obs.Metrics.counter n)) counter_names

let read_counters () =
  List.map (fun (n, c) -> (n, Obs.Metrics.value c)) counters

let counter_delta ~before ~after =
  List.map2 (fun (n, a) (_, b) -> (n, b - a)) before after

(* --- span analysis --- *)

let is_bench (s : Obs.Trace.span) = List.mem s.Obs.Trace.name span_names
let dur_us (s : Obs.Trace.span) = s.Obs.Trace.end_us -. s.Obs.Trace.start_us

(* The benchmark spans directly under [s], looking through program
   spans. *)
let rec bench_children (s : Obs.Trace.span) =
  List.concat_map
    (fun c -> if is_bench c then [ c ] else bench_children c)
    s.Obs.Trace.children

let self_us s =
  dur_us s -. List.fold_left (fun acc c -> acc +. dur_us c) 0.0 (bench_children s)

let attr key (s : Obs.Trace.span) =
  match List.assoc_opt key s.Obs.Trace.attrs with
  | Some (Obs.Trace.Str v) -> Some v
  | _ -> None

(* Self microseconds summed per span name (service lookups keyed
   "cache.service.get.<outcome>"), span counts per name, and the share of op wall
   time that layer spans cover: over all ops, and the share that 99% of
   ops reach. *)
type self_times = {
  total_us : (string, float) Hashtbl.t;
  count : (string, int) Hashtbl.t;
  attributed : float;
  attributed_p1 : float;
}

let self_times roots =
  let total_us = Hashtbl.create 32 and count = Hashtbl.create 32 in
  let bump k us =
    Hashtbl.replace total_us k
      (us +. Option.value (Hashtbl.find_opt total_us k) ~default:0.0);
    Hashtbl.replace count k (1 + Option.value (Hashtbl.find_opt count k) ~default:0)
  in
  let rec walk s =
    let key =
      if s.Obs.Trace.name = service_get then
        service_get ^ "." ^ Option.value (attr "outcome" s) ~default:"error"
      else s.Obs.Trace.name
    in
    bump key (self_us s);
    List.iter walk (bench_children s)
  in
  let shares = ref [] and op_us = ref 0.0 and op_self_us = ref 0.0 in
  List.iter
    (fun r ->
      if is_bench r then begin
        walk r;
        if r.Obs.Trace.name = op && dur_us r > 0.0 then begin
          op_us := !op_us +. dur_us r;
          op_self_us := !op_self_us +. self_us r;
          shares := (1.0 -. (self_us r /. dur_us r)) :: !shares
        end
      end)
    roots;
  {
    total_us;
    count;
    attributed = (if !op_us > 0.0 then 1.0 -. (!op_self_us /. !op_us) else 0.0);
    attributed_p1 = (if !shares = [] then 0.0 else Stats.percentile 1.0 !shares);
  }
