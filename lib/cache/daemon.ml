(* The serve daemon's request loop, hardened.

   This used to live in bin/streamit_gpu.ml; it moved here so the
   chaos campaign (lib/check/serve_chaos.ml) and the tests can drive
   the *exact* production loop rather than a re-implementation.

   The hardening layers, outermost first:

   - [Protocol.read_bounded_line] caps how much one request line may
     buffer; an over-limit line becomes a single error response and
     the stream stays line-synchronized.
   - Every compile request passes the {!Guard} admission ledger
     *before* any expensive work (graph parsing included).  Admission
     decisions for a batch are taken serially in request order before
     the batch fans out, so under the same burst the same requests are
     always shed, with the deterministic [overloaded_response].
   - The {!Service} contains compile crashes (waiters never hang) and
     poisons repeatedly-crashing keys; the daemon additionally wraps
     each request so nothing a single request throws can kill the
     loop.
   - Shutdown drains: the guard refuses new admissions with reason
     "draining", in-flight work finishes ([Guard.await_idle]), and the
     response carries the drain report (occupancy peaks, sheds,
     compiles) so clients can log the final counters. *)

type t = {
  service : Service.t;
  guard : Guard.t;
  max_line_bytes : int;
  lookup_program : string -> (Streamit.Graph.t, string) result;
}

let default_max_line_bytes = 4 * 1024 * 1024

let no_lookup name =
  Error
    (Printf.sprintf
       "'%s' is not available: this daemon has no builtin program registry"
       name)

let create ?guard ?(max_line_bytes = default_max_line_bytes)
    ?(lookup_program = no_lookup) service =
  if max_line_bytes < 1024 then
    invalid_arg "Daemon.create: max_line_bytes must be >= 1024";
  let guard = match guard with Some g -> g | None -> Guard.create () in
  { service; guard; max_line_bytes; lookup_program }

let service t = t.service
let guard t = t.guard

(* --- request -> graph/options --- *)

let graph_of_request t (r : Protocol.request) =
  let of_stream stream =
    match Streamit.Ast.validate stream with
    | Error m -> Error ("invalid stream: " ^ m)
    | Ok () -> Ok (Streamit.Flatten.flatten stream)
  in
  match (r.Protocol.program, r.Protocol.src) with
  | Some _, Some _ -> Error "give either \"program\" or \"src\", not both"
  | None, None -> Error "compile request needs a \"program\" or \"src\" field"
  | Some p, None -> t.lookup_program p
  | None, Some src -> (
    match Frontend.Parser.parse_program src with
    | stream -> of_stream stream
    | exception Frontend.Parser.Parse_error (m, l, c) ->
      Error (Printf.sprintf "src:%d:%d: %s" l c m)
    | exception Frontend.Lexer.Lex_error (m, l, c) ->
      Error (Printf.sprintf "src:%d:%d: %s" l c m))

let options_of_request (r : Protocol.request) =
  if r.Protocol.coarsening < 1 then Error "coarsening must be at least 1"
  else if match r.Protocol.num_sms with Some n -> n < 1 | None -> false then
    Error "num_sms must be at least 1"
  else if match r.Protocol.budget with Some b -> b < 0 | None -> false then
    Error "budget must be >= 0 work units"
  else if match r.Protocol.lns_rounds with Some n -> n < 0 | None -> false
  then Error "lns_rounds must be >= 0"
  else if
    match r.Protocol.deadline with Some d -> d <= 0.0 | None -> false
  then Error "deadline must be positive seconds"
  else
    Ok
      {
        Key.default_options with
        Key.num_sms = r.Protocol.num_sms;
        coarsening = r.Protocol.coarsening;
        scheme = r.Protocol.scheme;
        budget = r.Protocol.budget;
        lns_rounds = r.Protocol.lns_rounds;
        target = r.Protocol.target;
      }

(* --- the read-only ops (never admitted: they do bounded work) --- *)

let stats_response t (req : Protocol.request) =
  let module J = Obs.Report in
  let memo = Swp_core.Profile.memo_stats () in
  J.to_string
    (J.Obj
       [
         ("id", Option.value req.Protocol.id ~default:J.Null);
         ("status", J.Str "ok");
         ("compiles", J.Int (Service.compiles t.service));
         ( "profile_node_memo",
           J.Obj
             [
               ("hits", J.Int memo.Swp_core.Profile.node_hits);
               ("misses", J.Int memo.Swp_core.Profile.node_misses);
               ("entries", J.Int memo.Swp_core.Profile.node_entries);
             ] );
       ])

let health_json t =
  let module J = Obs.Report in
  let h = Store.health (Service.store t.service) in
  let o = Guard.occupancy t.guard in
  [
    ("version", J.Str Key.compiler_version);
    ("compiles", J.Int (Service.compiles t.service));
    ( "cache",
      J.Obj
        [
          ("mem_entries", J.Int h.Store.mem_entries);
          ("disk", J.Str (Store.disk_state_name h.Store.disk));
          ("quarantined", J.Int h.Store.quarantined_total);
          ("scrub_scanned", J.Int h.Store.scrub_scanned);
          ("scrub_quarantined", J.Int h.Store.scrub_quarantined);
        ] );
    ( "guard",
      J.Obj
        [
          ("outstanding", J.Int o.Guard.outstanding);
          ("work_occupancy", J.Int o.Guard.work_occupancy);
          ("capacity", J.Int o.Guard.capacity);
          ( "work_cap",
            match o.Guard.work_cap with Some c -> J.Int c | None -> J.Null );
          ("peak_outstanding", J.Int o.Guard.peak_outstanding);
          ("peak_work", J.Int o.Guard.peak_work);
          ("admitted", J.Int o.Guard.admitted_total);
          ("shed", J.Int o.Guard.shed_total);
          ("ledger_work", J.Int o.Guard.ledger_work_total);
          ("draining", J.Bool o.Guard.draining);
        ] );
    ("breaker_open", J.Int (Service.breaker_open_count t.service));
  ]

let ping_response t (req : Protocol.request) =
  let module J = Obs.Report in
  J.to_string
    (J.Obj
       (( "id",
          match req.Protocol.id with Some id -> id | None -> J.Null )
       :: ("status", J.Str "ok")
       :: health_json t))

(* --- compile, behind admission --- *)

(* The work a compile request declares to the ledger: its explicit
   solver budget when it carries one (that is the deterministic
   work-unit bound the pipeline itself enforces), the guard's default
   otherwise. *)
let declared_work (req : Protocol.request) = req.Protocol.budget

let run_compile t (req : Protocol.request) =
  match graph_of_request t req with
  | Error m -> Protocol.error_response ~req m
  | Ok g -> (
    match options_of_request req with
    | Error m -> Protocol.error_response ~req m
    | Ok opts -> (
      match
        Service.get ~warm:req.Protocol.warm ?deadline:req.Protocol.deadline
          t.service g opts
      with
      | Ok (e, outcome) -> Protocol.ok_response req e outcome
      | Error m -> Protocol.error_response ~req m
      | exception e ->
        (* The daemon must survive anything a single request throws. *)
        Protocol.error_response ~req
          ("internal error: " ^ Printexc.to_string e)))

(* A request staged for execution, its admission already decided.
   Splitting decision from execution is what keeps shedding
   deterministic: decisions happen serially in arrival order, then the
   admitted work may fan out in any order. *)
type staged =
  | Run of Protocol.request * Guard.ticket option
      (** [Some] for admitted compiles, [None] for the cheap read-only
          ops that bypass admission *)
  | Refuse of string  (** response rendered at decision time *)

let stage t (req : Protocol.request) =
  match req.Protocol.op with
  | Protocol.Compile -> (
    match Guard.try_admit ?work:(declared_work req) t.guard with
    | Guard.Admitted ticket -> Run (req, Some ticket)
    | Guard.Shed { reason; retry_after_ms } ->
      Refuse (Protocol.overloaded_response ~req ~reason ~retry_after_ms ()))
  | Protocol.Stats | Protocol.Ping -> Run (req, None)
  | Protocol.Shutdown ->
    (* Only meaningful at the top level; inside a batch it is refused
       so an array can never half-kill the daemon. *)
    Refuse (Protocol.error_response ~req "shutdown is not allowed in a batch")

let execute t = function
  | Refuse response -> response
  | Run (req, ticket) ->
    Fun.protect
      ~finally:(fun () ->
        match ticket with
        | Some tk -> Guard.release t.guard tk
        | None -> ())
      (fun () ->
        match req.Protocol.op with
        | Protocol.Compile -> run_compile t req
        | Protocol.Stats -> stats_response t req
        | Protocol.Ping -> ping_response t req
        | Protocol.Shutdown ->
          Protocol.error_response ~req "shutdown is not allowed in a batch")

let drain_report t =
  let module J = Obs.Report in
  let o = Guard.occupancy t.guard in
  [
    ("drained", J.Bool true);
    ("in_flight_at_drain", J.Int o.Guard.outstanding);
    ("admitted", J.Int o.Guard.admitted_total);
    ("shed", J.Int o.Guard.shed_total);
    ("peak_outstanding", J.Int o.Guard.peak_outstanding);
    ("compiles", J.Int (Service.compiles t.service));
  ]

let shutdown t (req : Protocol.request) =
  Guard.begin_drain t.guard;
  (* Snapshot *before* await so in_flight_at_drain reports what the
     drain actually waited for (always 0 on the stdin loop, can be
     positive under a concurrent socket server). *)
  let in_flight = (Guard.occupancy t.guard).Guard.outstanding in
  Guard.await_idle t.guard;
  let module J = Obs.Report in
  let drain =
    drain_report t
    |> List.map (fun (k, v) ->
           if k = "in_flight_at_drain" then (k, J.Int in_flight) else (k, v))
  in
  Protocol.shutdown_response ~drain req

(* One input line -> `Reply response | `Shutdown response. *)
let handle_line t line =
  match Protocol.parse line with
  | exception Protocol.Parse_error m ->
    `Reply (Protocol.error_response ("invalid JSON: " ^ m))
  | Obs.Report.Arr docs ->
    (* Parse the whole batch, admit serially in order, then fan out. *)
    let staged =
      List.map
        (fun doc ->
          match Protocol.request_of_json doc with
          | Error m ->
            Refuse (Protocol.error_response ?id:(Obs.Report.member "id" doc) m)
          | Ok req -> stage t req)
        docs
    in
    let responses = Par.Pool.map_auto (execute t) staged in
    `Reply ("[" ^ String.concat "," responses ^ "]")
  | doc -> (
    match Protocol.request_of_json doc with
    | Error m ->
      `Reply (Protocol.error_response ?id:(Obs.Report.member "id" doc) m)
    | Ok req -> (
      match req.Protocol.op with
      | Protocol.Shutdown -> `Shutdown (shutdown t req)
      | Protocol.Compile -> `Reply (execute t (stage t req))
      | Protocol.Stats -> `Reply (stats_response t req)
      | Protocol.Ping -> `Reply (ping_response t req)))

(* Returns true when a shutdown request ended the stream (vs EOF). *)
let serve_channel t ic oc =
  let reply s =
    output_string oc s;
    output_char oc '\n';
    flush oc
  in
  let rec loop () =
    match Protocol.read_bounded_line ~max_bytes:t.max_line_bytes ic with
    | Protocol.Eof -> false
    | Protocol.Truncated ->
      reply
        (Protocol.error_response
           (Printf.sprintf "request line exceeds %d bytes" t.max_line_bytes));
      loop ()
    | Protocol.Line line when String.trim line = "" -> loop ()
    | Protocol.Line line -> (
      match handle_line t line with
      | `Reply s ->
        reply s;
        loop ()
      | `Shutdown s ->
        reply s;
        true)
  in
  loop ()

let serve_socket t path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let cleanup () =
    (try Unix.close sock with Unix.Unix_error _ -> ());
    try Unix.unlink path with Unix.Unix_error _ -> ()
  in
  at_exit cleanup;
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 16;
  (* A client that disconnects mid-response must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let stop = ref false in
  while not !stop do
    let fd, _ = Unix.accept sock in
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    (try stop := serve_channel t ic oc
     with Sys_error _ | Unix.Unix_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  done;
  0
