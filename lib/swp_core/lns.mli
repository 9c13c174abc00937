(** Large-neighborhood (LNS) refinement of a feasible schedule.

    The II search stops at the first feasible candidate; this pass then
    tries to push {e below} it.  Each probe freezes the best schedule's
    SM assignment, picks a target II between the lower bound and the
    current best (bisection, re-anchored on every improvement), and

    + {b repairs} the assignment greedily — relocations of instances off
      overloaded SMs to the least-loaded fitting SM, then swaps of a big
      overloaded-SM instance against a smaller one elsewhere (each move
      strictly decreases total overload, so repair terminates);
    + {b re-packs exactly} when greed leaves SMs overloaded and the
      window is small: the instances of the still-overloaded SMs form a
      bin-packing ILP against the frozen remainder's residual
      capacities, screened by the phase-1 LP feasibility oracle and
      solved by branch-and-bound under a work-unit budget;
    + {b re-places} phase 2 ({!Heuristic.place}) at the target II and
      validates.

    Probes run serially after the upward search has committed, use fixed
    iteration orders and work-unit budgets only, and are committed
    through the caller's [commit] callback in probe order — so a
    budgeted refinement cuts off at the same probe serially and under
    [--jobs N], preserving byte-identical attempt logs. *)

type probe = {
  target : int;         (** candidate II of this probe *)
  feasible : bool;      (** the repaired schedule validated at [target] *)
  moved : int;          (** greedy relocations + swaps applied *)
  exact_window : bool;  (** the exact window re-pack ILP was attempted *)
  lp_pivots : int;
  bb_nodes : int;
  work_units : int;     (** [1 + lp_pivots + bb_nodes], the ledger charge *)
  time_s : float;       (** CPU seconds (excluded from log signatures) *)
}

val refine :
  ?rounds:int ->
  ledger_ok:(unit -> bool) ->
  commit:(probe -> unit) ->
  insts:Instances.instance list ->
  deps:Instances.dep list ->
  Streamit.Graph.t ->
  Select.config ->
  num_sms:int ->
  lb:int ->
  Swp_schedule.t ->
  Swp_schedule.t
(** [refine ~ledger_ok ~commit ... ~lb s] returns the best schedule
    found (possibly [s] itself; never worse, and always validated).  At
    most [rounds] (default 12) probes run; [ledger_ok] is consulted
    before each probe so an exhausted search ledger stops refinement
    without failing the search, and [commit] is called exactly once per
    probe, in order, with its deterministic work accounting.  Each
    exact window re-pack is bounded by 600 branch-and-bound nodes and
    1500 work units; windows larger than 96 assignment variables skip
    the exact step entirely. *)
