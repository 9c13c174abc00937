(** Exact-rational two-phase primal simplex.

    Solves the LP relaxation of a {!Problem} (integrality restrictions are
    ignored here; {!Branch_bound} layers them on top).  All pivoting is done
    in exact rational arithmetic with Bland's anti-cycling rule, so the
    solver terminates and never reports a spurious optimum due to rounding —
    essential when the ILP is used as a feasibility oracle for candidate
    initiation intervals.

    Pricing uses Dantzig's rule with a permanent switch to Bland's rule
    after a degeneracy budget; a hard pivot cap makes pathological
    instances return [Budget_exhausted None] instead of spinning.

    The production path stores tableau rows sparsely (sorted column/value
    pairs, hybrid-densified past a fill threshold) — the scheduling ILP
    matrices of Sec. III are overwhelmingly zero, and skipping the zeros in
    pivoting, pricing and the ratio test is worth an order of magnitude.
    The original dense tableau survives as [solve_reference] /
    [solve_with_bounds_reference]: both cores share the standard-form
    construction and make identical pivot choices, so they return identical
    results (cross-validated by property tests in [test/test_lp.ml]). *)

open Numeric

val solve : Problem.t -> Solution.outcome
(** Solve the LP relaxation with the problem's own variable bounds. *)

val solve_with_bounds :
  ?budget:Resil.Budget.t ->
  ?stats:Solution.lp_stats ref ->
  Problem.t ->
  lb:Rat.t option array ->
  ub:Rat.t option array ->
  Solution.outcome
(** Like {!solve} but with per-variable bound overrides (used by
    branch-and-bound to impose branching decisions without mutating the
    problem).  Arrays are indexed by variable id and must cover every
    variable.  [budget], when given, is the solve's only limit besides
    the hard pivot cap: it is charged one work unit per pivot, both its
    work cap and its wall-clock deadline (if armed) are checked before
    every pivot, and an exhausted token aborts with
    [Budget_exhausted None] — work-unit exhaustion is deterministic in
    the pivot sequence alone.  [stats], when given, is accumulated
    with the solve's pivot/fill statistics whatever the outcome (see
    {!Solution.add_lp_stats}). *)

val feasible_with_bounds :
  ?budget:Resil.Budget.t ->
  ?stats:Solution.lp_stats ref ->
  Problem.t ->
  lb:Rat.t option array ->
  ub:Rat.t option array ->
  [ `Feasible | `Infeasible | `Unknown ]
(** Phase-1-only feasibility oracle for the LP relaxation: the objective
    is ignored, so the answer costs exactly the phase-1 pivot sequence.
    [`Infeasible] is a {e proof} that the relaxation (and therefore the
    MILP) has no solution under the given bounds — the primitive the
    LP-relaxation lower bound in [Swp_core.Mii] and the LNS window
    screen are built on.  [`Unknown] means the pivot budget ran out
    first.  [budget]/[stats] behave as in {!solve_with_bounds}. *)

val solve_reference : Problem.t -> Solution.outcome
(** Dense-tableau reference implementation (the original solver).  Kept
    for cross-validation; use {!solve} in production code. *)

val solve_with_bounds_reference :
  ?budget:Resil.Budget.t ->
  ?stats:Solution.lp_stats ref ->
  Problem.t ->
  lb:Rat.t option array ->
  ub:Rat.t option array ->
  Solution.outcome
(** Dense-tableau counterpart of {!solve_with_bounds}.  [stats] is only
    accumulated on an [Optimal] outcome. *)
