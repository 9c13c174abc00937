(** Profiling phase (Fig. 6 of the paper).

    For every node of the flattened graph, four kernel versions are
    "compiled" with register caps {16, 20, 32, 64} and each is "executed"
    with {128, 256, 384, 512} threads on the simulated GPU, performing
    [numfirings] single-threaded firings regardless of configuration so
    the measurements are comparable.  Infeasible launches (block does not
    fit the register file) record an infinite time, exactly as Fig. 6
    line 5 prescribes. *)

type mode =
  | Coalesced      (** optimized shuffled buffer layout *)
  | Non_coalesced
      (** SWPNC: natural layout, or shared-memory staging when the
          working set fits (Sec. V-B) *)

type data = {
  reg_options : int list;
  thread_options : int list;
  numfirings : int;
  mode : mode;
  runtimes : float array array array;
      (** [runtimes.(node).(ri).(ti)] = simulated GPU cycles to perform
          [numfirings] firings of [node] compiled with [reg_options.(ri)]
          registers and run with [thread_options.(ti)] threads;
          [infinity] when infeasible *)
}

val reg_options : int list
(** The register caps every profile sweeps: [[16; 20; 32; 64]]. *)

val thread_options : int list
(** The thread counts every profile sweeps: [[128; 256; 384; 512]]. *)

val layout_for : Gpusim.Arch.t -> mode -> Streamit.Graph.node -> threads:int -> Gpusim.Timing.layout
(** The buffer layout a node uses under the given compilation mode. *)

val run :
  ?budget:Resil.Budget.t ->
  Gpusim.Arch.t ->
  Streamit.Graph.t ->
  mode:mode ->
  data
(** Memoized on [(arch, graph, mode)] — profiling is
    deterministic and the filter IR is pure data, so repeated compiles of
    the same graph (per scheme, per SM count) reuse one profile.  The
    cache is domain-safe, and an uncached sweep fans the per-filter
    timing grids out across {!Par.Pool.map_auto} (identical results in
    any width, node order preserved).  [budget] is checked cooperatively
    at entry and before each filter's sweep (an exhausted token raises
    {!Resil.Budget.Exhausted}) and, on a cache miss, charged one work
    unit per simulated [(node, regs, threads)] cell for stage
    accounting; a cache hit charges the same amount, so the ledger does
    not depend on cache warmth. *)

val clear_cache : unit -> unit
(** Drop every memoized profile — the whole-graph cache and the
    per-node memo (benchmark drivers use this to time cold sweeps
    fairly). *)

type memo_stats = { node_hits : int; node_misses : int; node_entries : int }

val memo_stats : unit -> memo_stats
(** Counters and current size of the per-node memo that sits under the
    whole-graph cache.  Per-node sweeps are keyed on the
    alpha-canonical node kind (name-irrelevant), so recompiling a graph
    in which a single filter changed re-simulates only that filter —
    the incremental-recompile path reported by the serve daemon. *)

val time_of : data -> node:int -> regs:int -> threads:int -> float
(** Lookup by option values rather than indices.
    @raise Not_found for an unprofiled combination. *)

val pass_cycles : data -> node:int -> regs:int -> threads:int -> float
(** Time of a single pass ([threads] concurrent firings):
    [time_of * threads / numfirings]. *)
