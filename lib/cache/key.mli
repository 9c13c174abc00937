(** Content-addressed cache keys: MD5 over a canonical structural
    serialization of the flattened graph + compile options + compiler
    version.  The serializer walks the graph's node array in id order
    and its edge list sorted by (src, src_port, dst, dst_port) — never
    a [Hashtbl] — and erases all naming on the way out (node display
    names never written, filter identifiers alpha-renamed inline in
    first-appearance order), so keys are deterministic and
    naming-irrelevant.  Floats serialize as their IEEE-754 bit
    pattern, so value changes below [%g] precision still change the
    key. *)

val compiler_version : string
(** Stamped into every key; bump when the compiler's output for an
    unchanged input changes, so stale on-disk entries miss. *)

val canonical_graph : Streamit.Graph.t -> Streamit.Graph.t
(** Same graph with canonical names: node [i] becomes ["n<i>"] and
    filters pass through {!Streamit.Kernel.alpha_canonical}.
    Idempotent; semantics (rates, costs, schedules) unchanged.  The
    serve daemon compiles this form so artifacts are byte-identical
    for any two inputs differing only in naming. *)

val serialize : ?full:bool -> Streamit.Graph.t -> string
(** Canonical byte serialization: identifiers are renamed inline
    during the single read-only pass, so [serialize g] and
    [serialize (canonical_graph g)] are byte-equal without ever
    building a canonical AST.  With [full = false], filter bodies
    (work, tables, state) are elided, leaving the interface skeleton —
    identical for two graphs that differ only in filter
    implementations. *)

type options = {
  arch : Gpusim.Arch.t;
  num_sms : int option;  (** [None] = all of [arch]'s SMs *)
  coarsening : int;
  scheme : Swp_core.Compile.scheme;
  budget : int option;
  lns_rounds : int option;
  target : Kir.Ir.target;
      (** codegen backend for the rendered kernel artifact; part of the
          key so requests for different targets never alias *)
}

val default_options : options
val options_string : options -> string

val digest : Streamit.Graph.t -> options -> string
(** Hex MD5 of (version, options, full serialization). *)

val skeleton_digest : Streamit.Graph.t -> options -> string
(** Hex MD5 of (version, options, body-free serialization); equal for
    two requests exactly when an incremental warm start is sound. *)
