(** Newline-delimited JSON protocol for [streamit_gpu serve]: one
    request object per line, one response per line, in order.
    Includes the minimal JSON reader the daemon needs (the repo's
    [Obs.Report] is writer-only), hardened for untrusted input:
    duplicate object keys, non-finite numbers and invalid UTF-8 in
    strings are rejected, typed fields error on the wrong type instead
    of being silently ignored, and {!read_bounded_line} caps how much
    one request line may buffer. *)

exception Parse_error of string

val parse : string -> Obs.Report.t
(** Parse one JSON document.  Counts the ["protocol.decode"] inject
    site.  @raise Parse_error on malformed input or trailing bytes. *)

val utf8_valid : string -> bool
(** Strict UTF-8 validation (overlongs and surrogates rejected). *)

type read_result =
  | Line of string
  | Truncated
      (** the line exceeded [max_bytes]; its remainder was consumed,
          so the stream stays line-synchronized *)
  | Eof

val read_bounded_line : max_bytes:int -> in_channel -> read_result
(** Read one newline-terminated line buffering at most [max_bytes]
    bytes.  The defense against a single huge request line growing an
    unbounded buffer. *)

type op = Compile | Stats | Ping | Shutdown

type request = {
  id : Obs.Report.t option;  (** echoed back verbatim *)
  op : op;
  program : string option;  (** builtin benchmark name *)
  src : string option;  (** inline .str source *)
  num_sms : int option;
  coarsening : int;
  scheme : Swp_core.Compile.scheme;
  budget : int option;
  deadline : float option;
      (** per-request wall-clock bound (seconds); deadline-shaped
          results are returned but never cached *)
  lns_rounds : int option;
  target : Kir.Ir.target;  (** codegen backend, default [Cuda] *)
  warm : bool;
  artifacts : string list;
      (** subset of ["schedule"; "layout"; "kernel"; "report"] to
          inline in the response *)
}

val request_of_json : Obs.Report.t -> (request, string) result
val parse_request : string -> (request, string) result

val ok_response : request -> Store.entry -> Service.outcome -> string

val error_response : ?req:request -> ?id:Obs.Report.t -> string -> string
(** [req] when the request parsed; bare [id] when only the raw JSON
    did. *)

val overloaded_response :
  ?req:request ->
  ?id:Obs.Report.t ->
  reason:string ->
  retry_after_ms:int ->
  unit ->
  string
(** The deterministic load-shed response: [status:"error"],
    [error:"overloaded: <reason>"] and a retry-after hint. *)

val shutdown_response : ?drain:(string * Obs.Report.t) list -> request -> string
(** [drain] appends the drain report (in-flight work finished, counters
    flushed) the daemon produces on a graceful shutdown. *)
