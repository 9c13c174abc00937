(** End-to-end compilation pipeline (Fig. 5 of the paper):

    profile every filter → select the execution configuration → generate
    the scheduling constraints → search for the smallest feasible II →
    lay out buffers.  The result carries everything code generation
    ({!Kir}) and the timing executor ({!Executor}) need.

    {2 Deadlines, budgets and degradation}

    Compilation is resilient by construction: given a [deadline] (wall
    clock) or [budget] (deterministic work units), the pipeline runs a
    ladder — the II search (the heuristic modulo scheduler plus LNS
    refinement by default; the exact ILP only in [Exact] mode), then the
    guaranteed-feasible {!Fallback} scheduler — and returns [Ok] with
    the achieved {!quality} instead of failing, unless [on_budget] is
    [`Fail].  Work-unit budgets are deterministic: the same graph under
    the same [budget] compiles to the byte-identical artifact whatever
    [--jobs] is.  Wall-clock deadlines are inherently nondeterministic
    and opt-in. *)

type scheme =
  | Swp_coalesced       (** the paper's optimized scheme *)
  | Swp_non_coalesced   (** SWPNC baseline: no memory-access coalescing *)

(** How far down the degradation ladder the schedule came from. *)
type quality =
  | Exact      (** the exact ILP produced (or verified) the schedule *)
  | Refined
      (** LNS refinement pushed the schedule below the first feasible
          candidate II ({!Lns.refine}) — strictly better than the rung
          the search alone reached *)
  | Heuristic  (** the heuristic modulo scheduler at the searched II *)
  | Degraded
      (** the fallback serial schedule at a relaxed II — valid but slow;
          produced only when a budget/deadline ran out or a fault was
          injected in the search stage *)

type stage_spend = {
  stage : string;   (** ["profile"] | ["select"] | ["search"] | ["layout"] *)
  wall_s : float;   (** stage wall time (nondeterministic, excluded from
                        deterministic report serializations) *)
  work : int;       (** deterministic work units charged to the stage's
                        ledger sub-token *)
}

(** Why the compile landed on its quality rung. *)
type rationale =
  | Completed               (** the II search returned a schedule *)
  | Search_stopped of Ii_search.reason
      (** the search stopped (budget/deadline) and the fallback took over *)
  | Fault_at of string      (** injected fault site that tripped degradation *)
  | Budget_exhausted of string * Resil.Budget.reason
      (** a non-search stage's budget token ran dry (label, axis) *)

type prov = {
  stage_spends : stage_spend list;  (** pipeline order *)
  ledger_total : int;
      (** root-ledger work total; equals the sum of the stage [work]
          fields (every charge goes through a stage sub-token) *)
  rationale : rationale;
  fallback_seed_ii : int option;
      (** the II the {!Fallback} scheduler was seeded with, when it ran *)
  total_wall_s : float;
}
(** Compile provenance: the raw material of the flight-recorder report
    ({!Report}). *)

type compiled = {
  arch : Gpusim.Arch.t;
  scheme : scheme;
  graph : Streamit.Graph.t;
  rates : Streamit.Sdf.rates;
  profile : Profile.data;
  config : Select.config;
  schedule : Swp_schedule.t;
  search_stats : Ii_search.stats;
  sizing : Buffer_layout.sizing;
  coarsening : int;
  quality : quality;
  prov : prov;
}

val quality_name : quality -> string
val pp_quality : Format.formatter -> quality -> unit
val rationale_name : rationale -> string
val pp_rationale : Format.formatter -> rationale -> unit

val compile :
  ?arch:Gpusim.Arch.t ->
  ?num_sms:int ->
  ?coarsening:int ->
  ?solver:Ii_search.solver ->
  ?lns_rounds:int ->
  ?scheme:scheme ->
  ?deadline:float ->
  ?budget:int ->
  ?on_budget:[ `Degrade | `Fail ] ->
  ?seed_ii:int ->
  Streamit.Graph.t ->
  (compiled, string) result
(** Defaults: the GeForce 8800 GTS 512 with all 16 SMs, coarsening 1,
    [Heuristic] solver, coalesced scheme, no deadline, no budget,
    [on_budget = `Degrade].  [solver] and [lns_rounds] pass through
    to {!Ii_search.search} (the per-candidate-II solver, and the LNS
    refinement round cap).

    [deadline] bounds the whole pipeline in wall-clock seconds:
    profiling and selection check it cooperatively, and the II search
    gets whatever time remains.  [budget] bounds the II search in
    deterministic work units (simplex pivots + branch-and-bound nodes +
    one per attempt); [budget:0] skips the search entirely.  When either
    runs out, [`Degrade] (the default) falls back down the ladder to a
    validated serial schedule with [quality = Degraded], while [`Fail]
    returns a structured one-line [Error].

    [seed_ii] is a warm-start hint for the degradation ladder: when the
    search commits no attempts before exhaustion, the fallback ramp
    starts from [max seed_ii lower_bound] instead of the bound alone.
    The serve cache passes a previously achieved II here when
    recompiling a graph in which a single filter changed.  It never
    influences a compile that completes its search (the attempt log
    takes precedence), so non-degraded results are byte-identical with
    or without the hint.

    Invalid arguments ([coarsening]/[num_sms] < 1, negative [budget],
    non-positive [deadline]) are reported as [Error], not exceptions.
    Injected faults ({!Resil.Inject}) in any stage yield either a
    degraded-but-valid compile (search stage, under [`Degrade]) or a
    structured [Error] — never an escaped exception. *)

val recoarsen : compiled -> int -> compiled
(** Same schedule with a different coarsening factor (SWPn of Fig. 11);
    only the buffer sizing changes — coarsening multiplies every delay by
    the same factor and therefore preserves schedule optimality, as the
    paper argues.  Quality is preserved. *)

val layout_of_node : compiled -> Streamit.Graph.node -> Gpusim.Timing.layout
(** The buffer layout each node's channel accesses use under this
    compilation scheme. *)

val pp_summary : Format.formatter -> compiled -> unit
