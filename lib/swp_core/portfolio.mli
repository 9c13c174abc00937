(** Portfolio of schedulers raced per candidate II.

    Each candidate II races several {e arms} in a fixed order — the three
    {!Heuristic.strategy} packings, then (when admitted) the exact ILP
    with clique cuts and root cover-cut separation — and the first
    feasible arm wins.  Different packings fail at different IIs, so the
    race lowers the achieved II at near-zero cost; the fixed order and
    work-unit accounting keep every probe a pure function of its
    candidate II, preserving the commit-prefix discipline that makes
    serial and [--jobs N] searches byte-identical.

    Budget: the attempt's {!Resil.Budget} token, which the II search
    arms with the per-attempt allotment (a work cap in [Auto] mode),
    bounds only the exact arm; the heuristic arms are cheap and always
    run to completion.

    Metrics ([portfolio.arm_won{arm}], [portfolio.no_arm_won],
    [portfolio.lns_improved], [portfolio.lns_improvement_pct]) are
    recorded only from {!record_arm}/{!record_lns}, which the II search
    calls at commit points — speculative probes never touch them. *)

type outcome = {
  schedule : Swp_schedule.t option;  (** the winning arm's schedule *)
  arm : string;
      (** winning arm: ["ffd"] | ["bfd"] | ["bal"] | ["exact"], or
          ["none"] when every arm failed *)
  arms_run : int;       (** arms actually raced (the work-unit charge) *)
  bb : Lp.Branch_bound.stats option;
      (** the exact arm's stats; [Some] exactly when it ran *)
}

val try_ii :
  ?budget:Resil.Budget.t ->
  ?allow_exact:bool ->
  ?node_budget:int ->
  insts:Instances.instance list ->
  deps:Instances.dep list ->
  Streamit.Graph.t ->
  Select.config ->
  num_sms:int ->
  ii:int ->
  outcome
(** Race the arms at one candidate II.  [allow_exact] (default [false])
    admits the exact ILP after every heuristic arm failed — the caller
    gates it on problem size and bound proximity.  The exact arm always
    runs with {!Ilp.cover_cuts}, under [node_budget] (default 2000) and
    [budget]. *)

val record_arm : string -> feasible:bool -> unit
(** Record a committed attempt's arm outcome (win counter per arm, loss
    counter for ["none"]).  Call only at commit points. *)

val record_lns : from_ii:int -> to_ii:int -> unit
(** Record a committed LNS improvement (counter + magnitude histogram,
    in percent of the pre-refinement II). *)
