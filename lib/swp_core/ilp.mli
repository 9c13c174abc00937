(** ILP formulation of the scheduling-and-assignment problem (Sec. III).

    For a candidate initiation interval [T], generates exactly the
    constraint system of the paper:

    - 0-1 assignment variables [w(k,v,p)] with constraint (1);
    - resource constraint (2) per SM;
    - offset variables [o(k,v)] with the no-wrap constraint (4);
    - stage variables [f(k,v)];
    - cross-SM indicators [g] defined by the pairs of inequalities (7);
    - the two dependence systems (8).

    The problem is a pure feasibility ILP (constant objective), solved by
    {!Lp.Branch_bound} — our CPLEX stand-in — under a node budget and
    the II search's per-attempt {!Resil.Budget} token (the paper's
    20-second allotment).  Only [Exact] mode and the solver cross-check
    ([Check.Invariants.cross_solver]) solve it; a default compile never
    does.  The cutting-plane lower bound ({!Mii.lp_bound}) builds it
    with [cuts] and solves only its LP relaxation. *)

type var_map = {
  w : (int * int * int, int) Hashtbl.t;  (** (node, k, sm) -> variable id *)
  o : (int * int, int) Hashtbl.t;        (** (node, k) -> variable id *)
  f : (int * int, int) Hashtbl.t;
  g : (int, int) Hashtbl.t;
      (** dependence index (position in the [deps] list) -> cross-SM
          indicator variable id; absent for self-dependences *)
}

val build :
  ?insts:Instances.instance list ->
  ?deps:Instances.dep list ->
  ?cuts:bool ->
  Streamit.Graph.t ->
  Select.config ->
  num_sms:int ->
  ii:int ->
  (Lp.Problem.t * var_map, string) result
(** [Error] when the II is trivially infeasible (some delay exceeds it).
    [insts]/[deps] supply a precomputed instance expansion — the II search
    reuses one expansion across every candidate II instead of re-deriving
    it per attempt.  [cuts] (default [false]) additionally emits the
    a-priori big-instance clique inequalities (at most one instance
    longer than [ii/2] per SM) — valid for every integral solution, they
    tighten the LP relaxation for the cutting-plane lower bound without
    changing the paper's base system. *)

val cover_cuts :
  var_map ->
  Instances.instance list ->
  Select.config ->
  num_sms:int ->
  ii:int ->
  Lp.Solution.t ->
  (Lp.Linexpr.t * Lp.Problem.relation * Lp.Linexpr.t) list
(** Separation oracle for {!Mii.lp_bound}'s cut rounds: given a
    fractional solution, returns the violated per-SM cover cuts of the
    knapsack rows (2) — for a set [C] of instances whose combined delay
    exceeds the II, [sum_{i in C} w(i,sm) <= |C|-1].  Deterministic
    (exact rational comparisons, fixed tie-breaks); returns [[]] when the
    point admits no violated cover. *)

val solve :
  ?node_budget:int ->
  ?budget:Resil.Budget.t ->
  ?insts:Instances.instance list ->
  ?deps:Instances.dep list ->
  ?warm_start:Swp_schedule.t ->
  ?stats:Lp.Branch_bound.stats option ref ->
  Streamit.Graph.t ->
  Select.config ->
  num_sms:int ->
  ii:int ->
  [ `Schedule of Swp_schedule.t | `Infeasible | `Budget_exhausted ]
(** Builds, solves, decodes and {e validates} the schedule before
    returning it.

    [warm_start], when given a schedule for the same [ii] and [num_sms]
    (typically the heuristic scheduler's), is translated into an ILP
    assignment and handed to branch-and-bound as its incumbent — for this
    pure-feasibility problem the search then verifies it against every
    constraint and returns immediately instead of exploring.  SM labels
    are permuted to satisfy the symmetry-breaking constraint first.

    [budget], when given, is the solve's {!Resil.Budget} token, shared
    by branch-and-bound and every LP relaxation (one work unit per node
    and one per simplex pivot); the II search arms it with the
    per-attempt allotment.  An exhausted token yields
    [`Budget_exhausted], deterministically when the token has no
    wall-clock deadline.

    [stats] receives the branch-and-bound statistics of the solve (node
    and simplex-pivot counts) whatever the outcome. *)
