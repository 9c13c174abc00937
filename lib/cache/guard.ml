(* Admission control and load shedding for the serve daemon.

   The guard is a work-unit ledger in front of the compile service:
   every compile request declares a cost (its deterministic work-unit
   budget when it carries one, [default_work] otherwise) and must be
   admitted before any expensive work — graph parsing included —
   happens.  Two caps bound the daemon:

   - a *count* cap: at most [max_inflight] requests executing plus
     [queue_cap] waiting for a pool slot may be outstanding at once;
   - an optional *work* cap: the summed declared cost of outstanding
     requests may not exceed [work_cap], so a handful of huge-budget
     requests cannot crowd out everything else even when the count cap
     would let them in.

   Beyond either cap the request is shed with a deterministic
   "overloaded" error and a retry-after hint that is a pure function
   of the occupancy at decision time.  Admission decisions are taken
   serially in request-arrival order (the daemon admits a batch before
   fanning it out), which is what makes shedding reproducible: the
   same burst always sheds the same requests.

   Cumulative admitted work also charges a [Resil.Budget] ledger, so
   the ping op can report lifetime work-unit throughput with the same
   accounting the compile pipeline uses.

   The ["serve.admit"] inject site lets the chaos campaign force sheds
   deterministically.  [begin_drain] flips the guard into drain mode:
   new admissions shed with reason "draining" while in-flight work
   finishes; [await_idle] blocks until the last ticket is released. *)

type shed = { reason : string; retry_after_ms : int }

type ticket = { work : int }

type admission = Admitted of ticket | Shed of shed

type t = {
  m : Mutex.t;
  idle : Condition.t;
  max_inflight : int;
  queue_cap : int;
  work_cap : int option;
  ledger : Resil.Budget.t;  (** cumulative admitted work units *)
  mutable outstanding : int;
  mutable work_occupancy : int;
  mutable draining : bool;
  mutable peak_outstanding : int;
  mutable peak_work : int;
  mutable admitted : int;
  mutable shed : int;
}

let m_admitted = Obs.Metrics.counter "serve.guard.admitted"
let m_shed = Obs.Metrics.counter "serve.guard.shed"
let m_drained = Obs.Metrics.counter "serve.guard.drained"

(* Declared cost of a request without an explicit budget. *)
let default_work = 20_000

let create ?(max_inflight = 4) ?(queue_cap = 16) ?work_cap () =
  if max_inflight < 1 then invalid_arg "Guard.create: max_inflight must be >= 1";
  if queue_cap < 0 then invalid_arg "Guard.create: queue_cap must be >= 0";
  (match work_cap with
  | Some c when c < 1 -> invalid_arg "Guard.create: work_cap must be >= 1"
  | _ -> ());
  {
    m = Mutex.create ();
    idle = Condition.create ();
    max_inflight;
    queue_cap;
    work_cap;
    ledger = Resil.Budget.create ~label:"serve.ledger" ();
    outstanding = 0;
    work_occupancy = 0;
    draining = false;
    peak_outstanding = 0;
    peak_work = 0;
    admitted = 0;
    shed = 0;
  }

let capacity t = t.max_inflight + t.queue_cap

(* Deterministic retry hint: proportional to how deep the backlog is
   at decision time.  Clients treat it as a hint, not a promise. *)
let retry_hint t = 25 * (t.outstanding + 1)

let try_admit ?work t =
  let work = match work with Some w -> max 1 w | None -> default_work in
  Mutex.lock t.m;
  let decision =
    if t.draining then Shed { reason = "draining"; retry_after_ms = 0 }
    else if Resil.Inject.hit "serve.admit" then
      Shed
        { reason = "injected fault: serve.admit"; retry_after_ms = retry_hint t }
    else if t.outstanding >= capacity t then
      Shed { reason = "admission queue full"; retry_after_ms = retry_hint t }
    else
      match t.work_cap with
      | Some cap when work > cap ->
        (* Retrying cannot help: the request alone exceeds the ledger. *)
        Shed
          {
            reason =
              Printf.sprintf "request work %d exceeds ledger capacity %d" work
                cap;
            retry_after_ms = 0;
          }
      | Some cap when t.work_occupancy + work > cap ->
        Shed { reason = "work ledger full"; retry_after_ms = retry_hint t }
      | _ ->
        t.outstanding <- t.outstanding + 1;
        t.work_occupancy <- t.work_occupancy + work;
        t.peak_outstanding <- max t.peak_outstanding t.outstanding;
        t.peak_work <- max t.peak_work t.work_occupancy;
        t.admitted <- t.admitted + 1;
        Resil.Budget.charge t.ledger work;
        Admitted { work }
  in
  (match decision with
  | Admitted _ -> Obs.Metrics.inc m_admitted
  | Shed _ ->
    t.shed <- t.shed + 1;
    Obs.Metrics.inc m_shed);
  Mutex.unlock t.m;
  decision

let release t (ticket : ticket) =
  Mutex.lock t.m;
  t.outstanding <- t.outstanding - 1;
  t.work_occupancy <- t.work_occupancy - ticket.work;
  if t.outstanding <= 0 then Condition.broadcast t.idle;
  Mutex.unlock t.m

let begin_drain t =
  Mutex.lock t.m;
  t.draining <- true;
  Mutex.unlock t.m

let draining t =
  Mutex.lock t.m;
  let d = t.draining in
  Mutex.unlock t.m;
  d

let await_idle t =
  Mutex.lock t.m;
  while t.outstanding > 0 do
    Condition.wait t.idle t.m
  done;
  Mutex.unlock t.m;
  Obs.Metrics.inc m_drained

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

let occupancy t =
  Mutex.lock t.m;
  let o =
    {
      outstanding = t.outstanding;
      work_occupancy = t.work_occupancy;
      capacity = capacity t;
      work_cap = t.work_cap;
      peak_outstanding = t.peak_outstanding;
      peak_work = t.peak_work;
      admitted_total = t.admitted;
      shed_total = t.shed;
      ledger_work_total = Resil.Budget.consumed t.ledger;
      draining = t.draining;
    }
  in
  Mutex.unlock t.m;
  o
