open Gpusim

type mode = Coalesced | Non_coalesced

type data = {
  reg_options : int list;
  thread_options : int list;
  numfirings : int;
  mode : mode;
  runtimes : float array array array;
}

(* The Fig. 6 grid: register caps x thread counts. *)
let reg_options = [ 16; 20; 32; 64 ]
let thread_options = [ 128; 256; 384; 512 ]

(* Every profile runs this many single-threaded firings: a common
   multiple of every thread count, large enough to amortize the kernel
   launch (Sec. IV-A). *)
let numfirings = 16 * List.fold_left Numeric.Intmath.lcm 1 thread_options

let layout_for arch mode node ~threads =
  match mode with
  | Coalesced -> Timing.Shuffled
  | Non_coalesced ->
    if Timing.shared_fits arch node ~threads then Timing.Shared_staged
    else Timing.Natural

(* Profiling is deterministic in (arch, graph, mode), and the II
   search and benchmark drivers profile the same graph repeatedly — once
   per scheme, per SM count, per solver comparison.  The filter IR is pure
   data (no closures), so structural keys are sound; memoize.  The cache
   is reset past a small bound to keep long-running drivers from
   accumulating graphs.

   The cache is shared across domains (parallel compile fan-outs hit it
   concurrently), so every access goes through [cache_m].  Two domains
   missing on the same key may both profile it; the second insert wins —
   both computed identical data, so nothing observable changes. *)
let cache : (Gpusim.Arch.t * Streamit.Graph.t * mode, data) Hashtbl.t =
  Hashtbl.create 16

let cache_m = Mutex.create ()

(* Per-node memo underneath the whole-graph cache: a node's sweep is a
   pure function of (arch, node kind, mode) alone
   — no cross-node coupling — so a graph that differs from previously
   profiled ones in a single filter re-simulates only that filter.
   Keys hold the alpha-canonical node kind, making the memo
   name-irrelevant: renaming a filter or its locals still hits.  This
   is the incremental-recompile workhorse behind the serve cache. *)
let node_cache :
    (Gpusim.Arch.t * Streamit.Graph.node_kind * mode, float array array)
    Hashtbl.t =
  Hashtbl.create 64

let node_cache_m = Mutex.create ()
let node_cache_bound = 1024

let canonical_kind (k : Streamit.Graph.node_kind) =
  match k with
  | Streamit.Graph.NFilter f ->
    Streamit.Graph.NFilter (Streamit.Kernel.alpha_canonical f)
  | Streamit.Graph.NSplitter _ | Streamit.Graph.NJoiner _ -> k

let clear_cache () =
  Mutex.lock cache_m;
  Hashtbl.reset cache;
  Mutex.unlock cache_m;
  Mutex.lock node_cache_m;
  Hashtbl.reset node_cache;
  Mutex.unlock node_cache_m

let cache_bound = 64
let m_cache_hits = Obs.Metrics.counter "profile.cache.hits"
let m_cache_misses = Obs.Metrics.counter "profile.cache.misses"
let m_cache_evictions = Obs.Metrics.counter "profile.cache.evictions"
let m_node_hits = Obs.Metrics.counter "profile.node_cache.hits"
let m_node_misses = Obs.Metrics.counter "profile.node_cache.misses"
let m_node_evictions = Obs.Metrics.counter "profile.node_cache.evictions"

type memo_stats = { node_hits : int; node_misses : int; node_entries : int }

let memo_stats () =
  Mutex.lock node_cache_m;
  let entries = Hashtbl.length node_cache in
  Mutex.unlock node_cache_m;
  {
    node_hits = Obs.Metrics.value m_node_hits;
    node_misses = Obs.Metrics.value m_node_misses;
    node_entries = entries;
  }

let rec run ?budget arch graph ~mode =
  Option.iter Resil.Budget.check budget;
  let key = (arch, graph, mode) in
  Obs.Trace.with_span "profile"
    ~attrs:[ ("nodes", Obs.Trace.Int (Streamit.Graph.num_nodes graph)) ]
    (fun () ->
      let cached =
        Mutex.lock cache_m;
        let c = Hashtbl.find_opt cache key in
        Mutex.unlock cache_m;
        c
      in
      match cached with
      | Some d ->
        Obs.Metrics.inc m_cache_hits;
        Obs.Trace.add_attr "cache" (Obs.Trace.Str "hit");
        (* Charge exactly what the sweep would have cost: work units
           account the *logical* work of the compile, so the budget
           ledger — and every report built from it — is byte-identical
           whether or not the cache was warm.  The serve cache's
           byte-identity guarantee depends on this. *)
        (match budget with
        | Some b ->
          Resil.Budget.charge b
            (Streamit.Graph.num_nodes graph
            * List.length reg_options
            * List.length thread_options)
        | None -> ());
        d
      | None ->
        Obs.Metrics.inc m_cache_misses;
        Obs.Trace.add_attr "cache" (Obs.Trace.Str "miss");
        let d =
          run_uncached ?budget arch graph ~mode
        in
        Mutex.lock cache_m;
        if Hashtbl.length cache >= cache_bound then begin
          Obs.Metrics.inc m_cache_evictions;
          Hashtbl.reset cache
        end;
        Hashtbl.replace cache key d;
        Mutex.unlock cache_m;
        d)

and run_uncached ?budget arch graph ~mode =
  let n = Streamit.Graph.num_nodes graph in
  (* The Fig. 6 sweep is embarrassingly parallel: each filter's 16
     (regs x threads) simulated timings are independent of every other
     filter's.  Fan the per-filter sweeps out across the global pool;
     results land in node order, so the profile is identical to the
     serial one. *)
  let profile_node v =
    (* Cooperative deadline check: a sweep past its wall-clock budget
       unwinds here (the pool join re-raises the exhaustion). *)
    Option.iter Resil.Budget.check budget;
    let node = Streamit.Graph.node graph v in
    let nkey = (arch, canonical_kind node.Streamit.Graph.kind, mode) in
    let memoized =
      Mutex.lock node_cache_m;
      let c = Hashtbl.find_opt node_cache nkey in
      Mutex.unlock node_cache_m;
      c
    in
    match memoized with
    | Some grid ->
      Obs.Metrics.inc m_node_hits;
      (* Return a copy: callers receive a fresh grid they may alias
         into [data.runtimes]; the memo keeps its own. *)
      Array.map Array.copy grid
    | None ->
      Obs.Metrics.inc m_node_misses;
      let grid =
        Array.map
          (fun regs ->
            Array.map
              (fun threads ->
                let layout = layout_for arch mode node ~threads in
                match
                  Timing.pass_of_node arch node ~threads ~regs_cap:regs
                    ~layout
                with
                | None -> infinity
                | Some pass ->
                  let iterations = numfirings / threads in
                  float_of_int
                    ((iterations * Timing.combine_solo pass)
                    + arch.Arch.kernel_launch_cycles))
              (Array.of_list thread_options))
          (Array.of_list reg_options)
      in
      Mutex.lock node_cache_m;
      if Hashtbl.length node_cache >= node_cache_bound then begin
        Obs.Metrics.inc m_node_evictions;
        Hashtbl.reset node_cache
      end;
      Hashtbl.replace node_cache nkey (Array.map Array.copy grid);
      Mutex.unlock node_cache_m;
      grid
  in
  let runtimes =
    Array.of_list (Par.Pool.map_auto profile_node (List.init n Fun.id))
  in
  (* Stage accounting: one work unit per simulated (node, regs, threads)
     cell, charged once from the calling domain after the fan-out joins
     (budget tokens must not be charged from workers).  A cache hit in
     [run] charges the same amount: work units count logical work, so
     the ledger is independent of cache warmth. *)
  (match budget with
  | Some b ->
    Resil.Budget.charge b
      (n * List.length reg_options * List.length thread_options)
  | None -> ());
  { reg_options; thread_options; numfirings; mode; runtimes }

let index_of l x =
  let rec go i = function
    | [] -> raise Not_found
    | y :: rest -> if y = x then i else go (i + 1) rest
  in
  go 0 l

let time_of d ~node ~regs ~threads =
  d.runtimes.(node).(index_of d.reg_options regs).(index_of d.thread_options threads)

let pass_cycles d ~node ~regs ~threads =
  let t = time_of d ~node ~regs ~threads in
  t *. float_of_int threads /. float_of_int d.numfirings
