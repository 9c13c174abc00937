(** Heuristic modulo scheduler — the fast path used when the exact ILP
    exceeds its node budget (the paper instead relaxes the II and re-runs
    CPLEX; we additionally fall back to this solver, cross-validated
    against the ILP in the test suite).

    Two phases:

    + {b assignment}: packing of instances onto SMs in decreasing-delay
      order under one of three {!strategy} rules — any packing whose
      per-SM profiled load fits within the II satisfies constraint (2);
    + {b scheduling}: with assignments fixed, the dependence system (8)
      becomes difference constraints on [A = T*f + o]; solved by
      longest-path relaxation in which instances violating the wrap
      constraint (4) are pushed to the next II boundary, until the
      least fixpoint.  Dependence cycles are settled one at a time, and
      a cycle that provably has no fixpoint is refuted without climbing
      to the [(n+3)*T] bound.

    The phases are exposed separately ({!pack} / {!place}) so the
    portfolio search can race packings and the LNS refinement pass can
    re-place a repaired assignment without re-packing. *)

type strategy =
  | First_fit
      (** first-fit decreasing — the original solver, and the default:
          emulates the clustered assignments a feasibility-only ILP
          yields *)
  | Best_fit
      (** best-fit decreasing: tightest feasible SM (maximum load that
          still fits), ties to the lowest SM index *)
  | Balanced
      (** longest-processing-time balance: always the least-loaded SM;
          fails when even that SM cannot take the instance *)

val strategy_name : strategy -> string
(** ["ffd"], ["bfd"], ["bal"] — the arm labels in attempt logs and
    metrics. *)

val all_strategies : strategy list
(** [[First_fit; Best_fit; Balanced]], the racing order of the
    portfolio's heuristic arms (fixed, for determinism). *)

val pack :
  strategy:strategy ->
  delays:int array ->
  num_sms:int ->
  ii:int ->
  int array option
(** Phase 1 alone: assign each dense instance index an SM so that no
    SM's total delay exceeds [ii].  [delays] is indexed by dense
    instance index; the result maps the same indices to SM ids.  [None]
    when the strategy fails to fit every instance. *)

val place :
  insts:Instances.instance array ->
  deps:Instances.dep list ->
  idx:(Instances.instance -> int) ->
  Streamit.Graph.t ->
  Select.config ->
  num_sms:int ->
  ii:int ->
  sm_of:int array ->
  [ `Schedule of Swp_schedule.t | `Infeasible ]
(** Phase 2 alone: given a fixed SM assignment [sm_of] (dense index ->
    SM), solve the dependence difference system by longest-path
    relaxation with wrap-around repair.  [idx] resolves a dependence
    endpoint to its dense index ([-1] for instances outside [insts]).
    Returned schedules are validated with {!Swp_schedule.validate}. *)

val solve :
  ?strategy:strategy ->
  ?insts:Instances.instance list ->
  ?deps:Instances.dep list ->
  Streamit.Graph.t ->
  Select.config ->
  num_sms:int ->
  ii:int ->
  [ `Schedule of Swp_schedule.t | `Infeasible ]
(** [pack] then [place].  [strategy] defaults to [First_fit], keeping
    the historical behaviour bit-for-bit.  Returned schedules are
    validated with {!Swp_schedule.validate}; [`Infeasible] is
    {e heuristic} infeasibility — a larger II may work, or the exact
    solver may succeed where the heuristic fails. *)
