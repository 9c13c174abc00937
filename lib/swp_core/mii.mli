(** Lower bounds on the initiation interval.

    [ResMII] is the resource bound: total instance work divided by the
    number of SMs.  [RecMII] is the recurrence bound over dependence
    cycles (only feedback loops create them; it is 0 for the whole
    evaluated benchmark suite, footnote 1 of the paper).  The II search
    starts at [max(ResMII, RecMII)], as Sec. V-B describes. *)

val res_mii : Select.config -> num_sms:int -> int

val res_mii_sharp : Select.config -> num_sms:int -> int
(** k-cardinality sharpening of {!res_mii}: for every k, among the
    [k*num_sms + 1] largest instance delays some SM hosts at least
    [k+1], so the II is at least the sum of the [k+1] smallest of that
    set.  Always [>= res_mii] (the plain average is the degenerate
    bound); strictly larger on skewed delay distributions. *)

exception Unschedulable of string
(** Raised by {!rec_mii} (and {!lower_bound}) when a dependence cycle is
    infeasible at {e every} T — its [jlag] terms sum to zero or more, so
    the [T*jlag] slack cancels around the cycle and the positive delays
    remain.  This happens when a feedback loop's initial tokens cannot
    cover one blocked iteration at the selected scaling; such a graph has
    no software-pipelined schedule at any II. *)

val rec_mii : ?deps:Instances.dep list -> Streamit.Graph.t -> Select.config -> int
(** Smallest T for which the dependence-difference system
    [A_dst - A_src >= d_src + T*jlag] admits a solution, found by binary
    search with Bellman-Ford positive-cycle detection.  0 when the
    instance dependence graph is acyclic.  @raise Unschedulable when no T
    is feasible. *)

type level =
  | Classic  (** the original [max(ResMII, RecMII, 1 + max delay)] *)
  | Sharp    (** [res_mii_sharp] in place of [ResMII] (the default) *)

val lower_bound :
  ?deps:Instances.dep list ->
  ?level:level ->
  Streamit.Graph.t ->
  Select.config ->
  num_sms:int ->
  int
(** [max(ResMII, RecMII, 1 + max delay)] — the last term because the
    no-wrap constraint (4) requires every instance to complete within one
    II.  [deps], here and in {!rec_mii}, supplies a precomputed dependence
    expansion so the II search derives it once.  [level] (default
    [Sharp]) selects the resource bound; [Classic] preserves the
    historical value for monotone-tightening comparisons.  Note the
    recurrence side needs no sharpening: {!rec_mii} binary-searches exact
    Bellman-Ford feasibility of the {e whole} difference system, which
    already accounts for every composite cycle, not a per-simple-cycle
    ratio approximation. *)

(** {1 Bound breakdown}

    The provenance machinery wants to answer "which bound was binding?"
    — so alongside the scalar {!lower_bound} there is a record keeping
    every component and the name of the one that determined the final
    value. *)

type bounds = {
  res_classic : int;   (** classic {!res_mii} *)
  res_sharp : int;     (** {!res_mii_sharp} *)
  recurrence : int;    (** {!rec_mii} *)
  no_wrap : int;       (** [1 + max live delay] (constraint (4)) *)
  combinatorial : int; (** max of the above, floored at 1 — equals
                           [lower_bound ~level:Sharp] *)
  lp : int option;     (** cutting-plane refinement when attempted *)
  final : int;         (** the search's starting II *)
  binding : string;
      (** which component is binding: ["lp"] | ["rec_mii"] |
          ["res_mii"] | ["res_mii_sharp"] | ["no_wrap"] | ["floor"] |
          ["unknown"].  When several tie, the first in that order wins
          (a classic resource bound that already proves the value takes
          precedence over its sharpening). *)
}

val bounds :
  ?deps:Instances.dep list ->
  Streamit.Graph.t ->
  Select.config ->
  num_sms:int ->
  bounds
(** All combinatorial components ([lp] is [None]; the II search grafts
    it with {!with_lp} when the problem passes the LP gate).
    @raise Unschedulable as {!rec_mii}. *)

val with_lp : bounds -> int -> bounds
(** Record an LP-bound result: sets [lp], raises [final] to it when it
    is stronger, and recomputes [binding]. *)

val unknown_bounds : bounds
(** All-zero placeholder ([binding = "unknown"]) for compiles that never
    reached the bounding step (e.g. a fault before the search). *)

val lp_bound :
  ?insts:Instances.instance list ->
  ?deps:Instances.dep list ->
  Streamit.Graph.t ->
  Select.config ->
  num_sms:int ->
  start:int ->
  int
(** Cutting-plane lower bound from the LP relaxation, [>= start] (pass
    the combinatorial {!lower_bound} as [start]).  Probes candidate IIs
    upward: a candidate [T] is {e refuted} when the LP relaxation of the
    full scheduling ILP at [T] — strengthened with the clique rows and
    up to two rounds of violated cover cuts ({!Ilp.cover_cuts}) — is
    proven infeasible; since every integral schedule satisfies the
    relaxation and ILP feasibility is monotone in [T], each refutation
    alone certifies [T+1] as a valid bound.  Exponential climb plus
    bisection maximize the refuted prefix under a fixed deterministic
    allotment of 2,000 simplex pivots (kept small because exact-rational
    pivot cost grows with the II magnitude in the capacity coefficients,
    not just the tableau size); exhaustion simply returns the best bound
    proven so far, so the result is reproducible across runs and
    [--jobs] settings. *)
