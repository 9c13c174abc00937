(* The compile service behind [streamit_gpu serve]: canonicalize,
   hash, look up, and only compile on a genuine miss.

   Safety argument, in one place: compilation is byte-deterministic in
   (canonical graph, options, compiler version) — the PR 4/5
   invariant, enforced by test_determinism — and the cache key is
   exactly that triple (Key.digest), so a hit can only ever return the
   same bytes a cold compile would produce.  Three refinements:

   - every compile runs on the *canonical* graph (names erased), so
     artifacts are independent of what the caller named things and a
     naming-only edit hits the cache with byte-identical results;
   - a warm-started compile ([?seed_ii] from a skeleton match) is
     stored only when the hint provably had no influence: the hint is
     consulted exclusively by the degradation fallback when the search
     committed nothing, so any non-[Degraded] result is byte-identical
     to the cold compile and safe to cache.  Degraded warm results are
     returned to the caller but never stored;
   - a compile under a per-request wall-clock [?deadline] is *never*
     stored (and records no skeleton hint): a deadline can stop any
     pipeline stage at a nondeterministic point, so nothing it shapes
     may claim to be the bytes of a cold compile.

   Concurrent requests for the same key are single-flighted: the first
   caller compiles, the rest block on a per-key flight cell and reuse
   its result, so N simultaneous identical requests cost one compile.
   A compile that *crashes* (escaped exception, as opposed to a
   structured [Error]) is contained: the flight cell is completed with
   an error so waiters never hang, and the key's crash count rises.
   After [breaker_threshold] consecutive crashes the key is poisoned —
   a circuit breaker refuses further compiles of it outright — so one
   pathological graph cannot take down the batch path by crashing a
   pool worker over and over.  A successful compile resets the key's
   count. *)

module Compile = Swp_core.Compile

type outcome = Hit | Miss | Incremental

let outcome_name = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Incremental -> "incremental"

type flight_state =
  | Pending
  | Done of (Store.entry, string) result

type flight = {
  fm : Mutex.t;
  cv : Condition.t;
  mutable state : flight_state;
}

type t = {
  store : Store.t;
  m : Mutex.t;  (** guards [inflight], [skeletons] and [crashes] *)
  inflight : (string, flight) Hashtbl.t;
  skeletons : (string, int) Hashtbl.t;
      (** skeleton digest -> last achieved II stored under it *)
  crashes : (string, int) Hashtbl.t;
      (** key -> consecutive compile crashes (the poison breaker) *)
  breaker_threshold : int;
  compiles : int Atomic.t;
  warm : bool;
}

let m_hit = Obs.Metrics.counter "cache.serve.hits"
let m_miss = Obs.Metrics.counter "cache.serve.misses"
let m_incremental = Obs.Metrics.counter "cache.serve.incremental"
let m_coalesced = Obs.Metrics.counter "cache.serve.coalesced"
let m_compiles = Obs.Metrics.counter "cache.serve.compiles"
let m_crashes = Obs.Metrics.counter "cache.serve.crashes"
let m_poisoned = Obs.Metrics.counter "cache.serve.poisoned"

let lat_hit =
  Obs.Metrics.histogram ~labels:[ ("outcome", "hit") ] "cache.serve.seconds"

let lat_miss =
  Obs.Metrics.histogram ~labels:[ ("outcome", "miss") ] "cache.serve.seconds"

let create ?dir ?capacity ?(warm = true) ?(breaker_threshold = 3) () =
  if breaker_threshold < 1 then
    invalid_arg "Service.create: breaker_threshold must be >= 1";
  {
    store = Store.create ?dir ?capacity ();
    m = Mutex.create ();
    inflight = Hashtbl.create 16;
    skeletons = Hashtbl.create 16;
    crashes = Hashtbl.create 16;
    breaker_threshold;
    compiles = Atomic.make 0;
    warm;
  }

let compiles t = Atomic.get t.compiles
let store t = t.store

(* --- the poison-key circuit breaker --- *)

let crash_count t key =
  Mutex.lock t.m;
  let n = Option.value (Hashtbl.find_opt t.crashes key) ~default:0 in
  Mutex.unlock t.m;
  n

let poisoned t key = crash_count t key >= t.breaker_threshold

let breaker_open_count t =
  Mutex.lock t.m;
  let n =
    Hashtbl.fold
      (fun _ c acc -> if c >= t.breaker_threshold then acc + 1 else acc)
      t.crashes 0
  in
  Mutex.unlock t.m;
  n

let record_crash t key =
  Obs.Metrics.inc m_crashes;
  Mutex.lock t.m;
  let n = Option.value (Hashtbl.find_opt t.crashes key) ~default:0 in
  Hashtbl.replace t.crashes key (n + 1);
  Mutex.unlock t.m

let record_success t key =
  Mutex.lock t.m;
  Hashtbl.remove t.crashes key;
  Mutex.unlock t.m

(* --- artifact rendering (pure functions of the compiled value) --- *)

let layout_text (c : Compile.compiled) =
  let b = Buffer.create 256 in
  let sz = c.Compile.sizing in
  Buffer.add_string b
    (Printf.sprintf "total_bytes %d\nstages %d\n"
       sz.Swp_core.Buffer_layout.total_bytes
       sz.Swp_core.Buffer_layout.stages);
  List.iter
    (fun ((e : Streamit.Graph.edge), bytes) ->
      Buffer.add_string b
        (Printf.sprintf "edge %d.%d->%d.%d bytes %d\n" e.Streamit.Graph.src
           e.Streamit.Graph.src_port e.Streamit.Graph.dst
           e.Streamit.Graph.dst_port bytes))
    sz.Swp_core.Buffer_layout.per_edge;
  Buffer.contents b

let schedule_text (c : Compile.compiled) =
  Format.asprintf "%a" (Swp_core.Swp_schedule.pp c.Compile.graph)
    c.Compile.schedule

let render key ~(target : Kir.Ir.target) (c : Compile.compiled) =
  {
    Store.key;
    ii = c.Compile.schedule.Swp_core.Swp_schedule.ii;
    quality = Compile.quality_name c.Compile.quality;
    signature = Swp_core.Report.schedule_signature c;
    schedule = schedule_text c;
    layout = layout_text c;
    kernel = Kir.Backend.emit_compiled target c;
    (* No program name (requests may name the same graph differently)
       and no timings: the report must be a pure function of the key. *)
    report = Swp_core.Report.to_json (Swp_core.Report.assemble c);
  }

let run_compile t (o : Key.options) ?seed_ii ?deadline g =
  Atomic.incr t.compiles;
  Obs.Metrics.inc m_compiles;
  if Resil.Inject.hit "serve.compile" then
    failwith "injected fault: serve.compile";
  Compile.compile ~arch:o.Key.arch ?num_sms:o.Key.num_sms
    ~coarsening:o.Key.coarsening ~scheme:o.Key.scheme ?budget:o.Key.budget
    ?lns_rounds:o.Key.lns_rounds ?seed_ii ?deadline g

(* --- single-flight get --- *)

let wait_flight fl =
  Mutex.lock fl.fm;
  let rec loop () =
    match fl.state with
    | Pending ->
      Condition.wait fl.cv fl.fm;
      loop ()
    | Done r -> r
  in
  let r = loop () in
  Mutex.unlock fl.fm;
  r

let finish_flight t key fl r =
  Mutex.lock t.m;
  Hashtbl.remove t.inflight key;
  Mutex.unlock t.m;
  Mutex.lock fl.fm;
  fl.state <- Done r;
  Condition.broadcast fl.cv;
  Mutex.unlock fl.fm

let get ?(warm = true) ?deadline t graph (o : Key.options) =
  let t0 = Resil.Clock.now () in
  (* The digest renames inline, so hits never pay for canonicalizing
     the graph — that happens only on the compile path below. *)
  let key = Key.digest graph o in
  let observe h = Obs.Metrics.observe h (Resil.Clock.now () -. t0) in
  if poisoned t key then begin
    Obs.Metrics.inc m_poisoned;
    Error
      (Printf.sprintf
         "poisoned: key %s crashed the compiler %d times and is quarantined"
         key (crash_count t key))
  end
  else
    match Store.find t.store key with
    | Some e ->
      Obs.Metrics.inc m_hit;
      observe lat_hit;
      Ok (e, Hit)
    | None -> (
      let claim =
        Mutex.lock t.m;
        match Hashtbl.find_opt t.inflight key with
        | Some fl ->
          Mutex.unlock t.m;
          `Join fl
        | None ->
          let fl =
            { fm = Mutex.create (); cv = Condition.create (); state = Pending }
          in
          Hashtbl.add t.inflight key fl;
          let skel = Key.skeleton_digest graph o in
          let hint =
            if t.warm && warm then Hashtbl.find_opt t.skeletons skel else None
          in
          Mutex.unlock t.m;
          `Lead (fl, skel, hint)
      in
      match claim with
      | `Join fl -> (
        (* Another request is already compiling this key; its result is
           ours too (same key, deterministic compile). *)
        Obs.Metrics.inc m_coalesced;
        match wait_flight fl with
        | Ok e ->
          Obs.Metrics.inc m_hit;
          observe lat_hit;
          Ok (e, Hit)
        | Error m -> Error m)
      | `Lead (fl, skel, hint) ->
        let result =
          match
            run_compile t o ?seed_ii:hint ?deadline (Key.canonical_graph graph)
          with
          | Ok c ->
            record_success t key;
            let e = render key ~target:o.Key.target c in
            (* Two taints block caching.  A Degraded result produced
               under a warm-start hint may have been shaped by it (the
               fallback ramp seeds from the hint).  Any result under a
               wall-clock deadline may have been shaped by where the
               clock happened to stop a stage.  Either way, refuse to
               store it so a later cold compile of the same key cannot
               disagree with the cached bytes. *)
            let tainted =
              (hint <> None && c.Compile.quality = Compile.Degraded)
              || deadline <> None
            in
            if not tainted then begin
              Store.put t.store e;
              Mutex.lock t.m;
              Hashtbl.replace t.skeletons skel e.Store.ii;
              Mutex.unlock t.m
            end;
            Ok e
          | Error m -> Error m
          | exception ex ->
            (* Contain the crash: waiters must never hang on a Pending
               flight, and the breaker counts the key. *)
            record_crash t key;
            Error ("compile crashed: " ^ Printexc.to_string ex)
        in
        finish_flight t key fl result;
        (match result with
        | Ok e ->
          let outcome = if hint <> None then Incremental else Miss in
          Obs.Metrics.inc
            (match outcome with Incremental -> m_incremental | _ -> m_miss);
          observe lat_miss;
          Ok (e, outcome)
        | Error m -> Error m))

let get_many ?warm t reqs =
  Par.Pool.map_auto (fun (g, o) -> get ?warm t g o) reqs
