(** Initiation-interval search loop (Sec. V-B).

    The paper's methodology: start at the lower bound
    [max(ResMII, RecMII)], allot the solver a fixed budget, and on
    failure relax the II by 0.5% (at least 1 cycle) and retry, giving up
    beyond 5x the bound.  We keep the same loop.  In the default
    [Heuristic] mode each candidate II races the
    {!Heuristic.all_strategies} packings, and the first feasible
    candidate is refined downward by {!Lns.refine}; no LP or ILP is
    solved.  In [Exact] mode each candidate II solves the paper's ILP
    ({!Ilp.solve}), warm-started with the first-fit packing's schedule
    so the ILP verifies rather than re-discovers it, and the floor is
    refined by the cutting-plane bound ({!Mii.lp_bound}) on small
    problems.

    The search derives the instance/dependence expansion {e once} and
    reuses it across every candidate II.

    {2 Budgets}

    A {!budget} bounds the search along two axes.  {e Per-attempt}: in
    [Exact] mode each candidate II gets one fresh {!Resil.Budget} token,
    armed at attempt start with the paper's 20 s CPLEX allotment
    ([exact_time_s]) and passed to the ILP solve as its only limit
    besides the node budget; the search then relaxes and retries, so
    this shapes quality, not termination.  A [Heuristic] attempt solves
    nothing that a token could bound, so a default compile reads no
    clock to decide anything.  {e Search-wide} limits ([total_work],
    [wall_clock_s]) stop the whole search with a structured {!error}
    that the compiler turns into a degraded-but-valid schedule.

    Work-unit limits (simplex pivots + branch-and-bound nodes, one unit
    each, plus one per arm raced or LNS probe) are deterministic: the
    ledger is charged only when an attempt {e commits}, in candidate
    order, so a budgeted parallel search cuts off at exactly the attempt
    the serial search would.  Wall-clock limits are nondeterministic.  An
    exact attempt that either kind of cap cuts short is logged with
    [budget_hit].

    Arm outcomes are counted at commit points only, as
    [portfolio.arm_won{arm}] (a feasible attempt's arm, and once more
    per LNS improvement under ["lns"]), [portfolio.no_arm_won],
    [portfolio.lns_improved] and [portfolio.lns_improvement_pct]. *)

type solver =
  | Exact of int
      (** the paper's ILP with the given node budget per candidate II,
          warm-started from the first-fit schedule whenever one exists
          at that II; never refined by LNS *)
  | Heuristic
      (** the default: race the heuristic packings, then refine the
          first feasible candidate with LNS *)

type budget = {
  exact_time_s : float option;
      (** wall-clock seconds per [Exact] attempt — the paper's 20 s
          CPLEX allotment *)
  auto_time_s : float option;
      (** ignored: no [Heuristic] attempt solves anything a clock could
          bound.  Kept only because the benchmark harness reads it *)
  total_work : int option;
      (** work-unit ledger for the whole search; exhaustion stops it
          with reason [`Budget].  Deterministic *)
  wall_clock_s : float option;
      (** wall-clock deadline for the whole search; exceeding it stops
          with reason [`Deadline].  Nondeterministic, opt-in *)
}

val default_budget : budget
(** [{ exact_time_s = Some 20.0; auto_time_s = None;
      total_work = None; wall_clock_s = None }] — the paper's
    per-attempt allotment for [Exact] and no search-wide limit. *)

type attempt = {
  ii : int;                (** candidate II of this attempt *)
  arm : string;
      (** the arm that produced this attempt's outcome: a heuristic
          packing (["ffd"] | ["bfd"] | ["bal"]), ["exact"] for an
          [Exact]-mode ILP solve, ["lns"] for a refinement probe, or
          ["none"] when nothing was feasible *)
  tried_exact : bool;
      (** the exact ILP ran (possibly warm-started); [Exact] mode only *)
  feasible : bool;
  solve_time_s : float;    (** wall seconds spent on this candidate *)
  lp_pivots : int;         (** simplex pivots across the ILP's relaxations *)
  bb_nodes : int;          (** branch-and-bound nodes explored *)
  work_units : int;        (** [lp_pivots + bb_nodes + arms raced] (at
                               least one), the ledger charge *)
  budget_hit : bool;       (** an exact solve failed with its attempt's
                               work or wall cap spent (or a fault was
                               injected here) *)
}

type stats = {
  lower_bound : int;       (** the starting II ([= bounds.final]) *)
  bounds : Mii.bounds;     (** full lower-bound breakdown: which of
                               RecMII / ResMII / sharp / LP was binding *)
  achieved_ii : int;
  attempts : int;          (** candidate IIs tried *)
  relaxation : float;      (** (achieved - bound) / bound *)
  used_exact : bool;       (** whether the returned schedule came from the ILP *)
  refined : bool;          (** LNS refinement improved the schedule below
                               the first feasible candidate *)
  attempt_log : attempt list;
      (** one entry per candidate II, in search order (the last entry is
          the successful one when the search succeeds) *)
}

type reason = [ `Unschedulable | `Budget | `Deadline | `Range ]
(** Why a search stopped without a schedule: structurally unschedulable
    at any II; the [total_work] ledger ran dry; the [wall_clock_s]
    deadline passed; or every candidate up to the relaxation cap failed. *)

type error = {
  message : string;        (** one-line human-readable diagnostic *)
  reason : reason;
  lower_bound : int;       (** 0 when unschedulable before bounding *)
  bounds : Mii.bounds option;
      (** the bound breakdown when the search got that far ([None] only
          for [`Unschedulable]) *)
  attempt_log : attempt list;  (** committed attempts up to the stop *)
}

val pp_reason : Format.formatter -> reason -> unit

val pp_attempt : Format.formatter -> attempt -> unit
(** One line per candidate II: solver, feasibility, time, pivots, nodes.
    Shared by the bench and CLI drivers so their attempt logs agree. *)

val pp_stats : Format.formatter -> stats -> unit
(** One-line search summary (achieved II, bound, relaxation, attempts). *)

val log_signature : stats -> string
(** Canonical serialization of the committed search — every attempt
    field except wall times.  Two runs of the same budgeted search must
    produce equal signatures whatever [--jobs] was; the determinism
    suite asserts exactly that. *)

val search :
  ?solver:solver ->
  ?lns_rounds:int ->
  ?budget:budget ->
  Streamit.Graph.t ->
  Select.config ->
  num_sms:int ->
  (Swp_schedule.t * stats, error) result
(** Defaults: [solver = Heuristic], [lns_rounds = 12],
    [budget = default_budget].

    [lns_rounds] bounds the {!Lns.refine} probes run below the first
    feasible candidate ([0] disables refinement; [Exact] mode never
    refines).  Both modes preserve byte-identical determinism: packings
    race in a fixed order, work-unit budgets are charged at commit, and
    refinement probes run serially at commit time. *)
