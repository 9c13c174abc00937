(** Device-memory coalescing and shared-memory bank-conflict analysis.

    On the simulated device (compute capability 1.x rules, Sec. II-A of
    the paper), a half-warp's simultaneous accesses collapse into a single
    memory transaction exactly when thread [N] accesses address
    [WarpBaseAddress + N] with the base aligned to a segment boundary;
    otherwise each thread issues its own transaction.

    The analysis takes an {e index map} — the function from thread id to
    the element index accessed — which is how both the natural FIFO layout
    and the paper's shuffled layout (eqs. (10) and (11)) are expressed. *)

type access_summary = {
  transactions : int;   (** memory transactions issued by one warp access *)
  bytes_moved : int;    (** bus bytes consumed, including transaction padding *)
  coalesced : bool;     (** true when fully coalesced *)
}

val analyze_warp :
  Arch.t -> elem_bytes:int -> tid_to_index:(int -> int) -> access_summary
(** Analyses one simultaneous access by a full warp, applying the
    half-warp coalescing rule. *)

val natural_index : pop_or_push_rate:int -> n:int -> int -> int
(** Element index of the [n]-th token accessed by a thread under the
    {e natural} (sequential FIFO) buffer layout: [tid * rate + n] — the
    layout of Fig. 8 that provokes bank conflicts. *)

val shuffled_index : rate:int -> cluster:int -> n:int -> int -> int
(** Element index under the paper's optimized layout, eq. (10)/(11):
    [cluster*n + (tid / cluster)*cluster*rate + (tid mod cluster)] with
    [cluster = 128]. *)

val transactions_per_firing :
  Arch.t -> rate:int -> threads:int -> shuffled:bool -> int
(** Total warp transactions for all [threads] threads each accessing
    [rate] tokens, under either layout. *)

val traffic_per_firing :
  Arch.t -> rate:int -> threads:int -> shuffled:bool -> int * int
(** [(transactions, bus_bytes)] for all [threads] threads each accessing
    [rate] tokens — the bus bytes include transaction padding, which is
    what makes uncoalesced access so expensive.  Computed in closed form
    (no warp is simulated); asserts the half-warp divides the 128-thread
    cluster and the segment divides the half-warp.  Each call adds
    [warps * rate] to one [gpusim.warp_accesses.*] counter. *)

val shared_bank_conflict_degree :
  Arch.t -> tid_to_index:(int -> int) -> int
(** Maximum number of half-warp threads hitting the same shared-memory
    bank (1 = conflict-free). *)

val cross_traffic :
  ?cached:bool ->
  Arch.t ->
  prod_rate:int ->
  cons_rate:int ->
  threads:int ->
  int * int
(** [(transactions, bus_bytes)] for one pass of a consumer reading an
    edge whose buffer is laid out for a producer with a different
    per-firing rate: the consumer's [n]-th token [tid*cons_rate + n]
    lives at the producer-pattern address (eq. (11) with the producer's
    rate), so consecutive threads touch [prod_rate/cons_rate]-strided
    addresses.  With [cached] (default, filter reads through the
    texture cache) traffic is the distinct minimum-size segments the
    whole warp touches over its pass — small strides are nearly free,
    large scatters pay per element.  With [~cached:false]
    (splitter/joiner gathers through plain global memory) every
    simultaneous half-warp access pays its distinct segments with no
    reuse — the raw compute-1.x transaction rule.  Computed in closed
    form from the injective map of a token to its (producer position,
    segment row) pair; asserts the minimum transaction divides the
    128-thread cluster. *)
