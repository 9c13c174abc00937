(** Admission control and load shedding for the serve daemon: a
    work-unit ledger with a count cap ([max_inflight] executing +
    [queue_cap] queued) and an optional concurrent work cap.  Requests
    beyond either cap are shed with a deterministic "overloaded" error
    and a retry-after hint; admission decisions are taken serially in
    arrival order, so the same burst always sheds the same requests.
    Cumulative admitted work charges a [Resil.Budget] ledger for the
    ping op's occupancy report.  Counts the ["serve.admit"] inject
    site. *)

type shed = {
  reason : string;
  retry_after_ms : int;  (** deterministic backlog-proportional hint *)
}

type ticket
(** Proof of admission; must be {!release}d exactly once. *)

type admission = Admitted of ticket | Shed of shed

type t

val create :
  ?max_inflight:int ->
  ?queue_cap:int ->
  ?work_cap:int ->
  unit ->
  t
(** Defaults: 4 in-flight, 16 queued, no work cap, 20k work units
    declared for requests without an explicit budget. *)

val capacity : t -> int
(** [max_inflight + queue_cap]: the outstanding-request bound. *)

val try_admit : ?work:int -> t -> admission
(** Non-blocking admission of a request declaring [work] work units
    (20k when omitted).  Never waits: the
    caller replies with the shed error instead. *)

val release : t -> ticket -> unit

val begin_drain : t -> unit
(** Refuse all further admissions (shed reason "draining"). *)

val draining : t -> bool

val await_idle : t -> unit
(** Block until every admitted ticket has been released. *)

type occupancy = {
  outstanding : int;
  work_occupancy : int;
  capacity : int;
  work_cap : int option;
  peak_outstanding : int;
  peak_work : int;
  admitted_total : int;
  shed_total : int;
  ledger_work_total : int;
  draining : bool;
}

val occupancy : t -> occupancy
