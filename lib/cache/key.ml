(* Content-addressed cache keys for compiled schedules.

   The key is an MD5 digest over a *canonical, structural*
   serialization of the flattened graph plus a canonical rendering of
   every compile option that can change the result, plus a compiler
   version stamp.  Canonical means:

   - nodes are written in id order from the graph's [nodes] array and
     edges sorted by (src, src_port, dst, dst_port) — the serializer
     walks arrays and sorted lists only, never a [Hashtbl], so the
     bytes cannot depend on hash-bucket iteration order;
   - every name is erased on the way out: node display names are never
     written and filter identifiers are alpha-renamed inline in the
     serializer's first-appearance order, so renaming a filter, a
     table or a local produces the same key (whitespace never reaches
     us at all — the frontend already discarded it);
   - floats (table/state/const values) serialize as their IEEE-754 bit
     pattern, so two graphs get the same bytes iff their floats are
     bit-identical.

   Compiles are byte-deterministic in (graph, options, version) — the
   PR 4/5 invariant — which is what makes returning a cached artifact
   for an equal key provably safe. *)

module G = Streamit.Graph
module K = Streamit.Kernel
module T = Streamit.Types

(* Bumped whenever the compiler can produce different artifacts for an
   unchanged (graph, options) pair; stale on-disk entries then miss
   instead of serving old bytes. *)
let compiler_version = "streamit-gpu/9"

(* --- canonical graph form --- *)

let canonical_node (n : G.node) =
  {
    n with
    G.name = "n" ^ string_of_int n.G.id;
    kind =
      (match n.G.kind with
      | G.NFilter f -> G.NFilter (K.alpha_canonical f)
      | (G.NSplitter _ | G.NJoiner _) as k -> k);
  }

(* The graph every cached compile actually runs on: identifiers are
   canonical, so artifacts (CUDA kernel names included) are identical
   for any two graphs that differ only in naming. *)
let canonical_graph (g : G.t) =
  { g with G.nodes = Array.map canonical_node g.G.nodes }

(* --- structural serialization --- *)

(* Identifiers are renamed inline as they are written: each filter gets
   a fresh table mapping names to "x0", "x1", ... in the order this
   serializer first meets them.  The numbering is the serializer's own
   (it need not match [Kernel.alpha_canonical]'s); what matters is that
   the traversal is deterministic, so any two alpha-equivalent filters
   produce identical bytes — including a graph and its
   [canonical_graph] form.  Renaming in place keeps the digest a single
   read-only pass: no canonical AST is ever constructed. *)

(* Floats serialize as their IEEE-754 bit pattern: injective (distinct
   floats, including -0.0 vs 0.0, get distinct bytes), deterministic,
   and orders of magnitude cheaper than a decimal shortest-round-trip
   search — table-heavy graphs have thousands of constants on the
   digest hot path. *)
let ser_value b = function
  | T.VInt n ->
    Buffer.add_char b 'i';
    Buffer.add_string b (string_of_int n)
  | T.VFloat f ->
    Buffer.add_char b 'f';
    Buffer.add_string b (Int64.to_string (Int64.bits_of_float f))

let ser_ty b = function
  | T.TInt -> Buffer.add_string b "int"
  | T.TFloat -> Buffer.add_string b "float"

let rec ser_expr b ren (e : K.expr) =
  match e with
  | K.Const v ->
    Buffer.add_string b "(c ";
    ser_value b v;
    Buffer.add_char b ')'
  | K.Var x ->
    Buffer.add_string b "(v ";
    Buffer.add_string b (ren x);
    Buffer.add_char b ')'
  | K.ArrayRef (a, i) ->
    Buffer.add_string b "(aref ";
    Buffer.add_string b (ren a);
    Buffer.add_char b ' ';
    ser_expr b ren i;
    Buffer.add_char b ')'
  | K.TableRef (t, i) ->
    Buffer.add_string b "(tref ";
    Buffer.add_string b (ren t);
    Buffer.add_char b ' ';
    ser_expr b ren i;
    Buffer.add_char b ')'
  | K.Pop -> Buffer.add_string b "(pop)"
  | K.Peek e ->
    Buffer.add_string b "(peek ";
    ser_expr b ren e;
    Buffer.add_char b ')'
  | K.Unop (op, e) ->
    Buffer.add_string b "(u ";
    Buffer.add_string b (K.string_of_unop op);
    Buffer.add_char b ' ';
    ser_expr b ren e;
    Buffer.add_char b ')'
  | K.Binop (op, x, y) ->
    Buffer.add_string b "(b ";
    Buffer.add_string b (K.string_of_binop op);
    Buffer.add_char b ' ';
    ser_expr b ren x;
    Buffer.add_char b ' ';
    ser_expr b ren y;
    Buffer.add_char b ')'
  | K.Cond (c, x, y) ->
    Buffer.add_string b "(cond ";
    ser_expr b ren c;
    Buffer.add_char b ' ';
    ser_expr b ren x;
    Buffer.add_char b ' ';
    ser_expr b ren y;
    Buffer.add_char b ')'

let rec ser_stmt b ren (s : K.stmt) =
  match s with
  | K.Let (x, e) ->
    Buffer.add_string b "(let ";
    Buffer.add_string b (ren x);
    Buffer.add_char b ' ';
    ser_expr b ren e;
    Buffer.add_char b ')'
  | K.Assign (x, e) ->
    Buffer.add_string b "(set ";
    Buffer.add_string b (ren x);
    Buffer.add_char b ' ';
    ser_expr b ren e;
    Buffer.add_char b ')'
  | K.DeclArray (a, n) ->
    Buffer.add_string b "(arr ";
    Buffer.add_string b (ren a);
    Buffer.add_char b ' ';
    Buffer.add_string b (string_of_int n);
    Buffer.add_char b ')'
  | K.ArrayAssign (a, i, e) ->
    Buffer.add_string b "(aset ";
    Buffer.add_string b (ren a);
    Buffer.add_char b ' ';
    ser_expr b ren i;
    Buffer.add_char b ' ';
    ser_expr b ren e;
    Buffer.add_char b ')'
  | K.Push e ->
    Buffer.add_string b "(push ";
    ser_expr b ren e;
    Buffer.add_char b ')'
  | K.If (c, th, el) ->
    Buffer.add_string b "(if ";
    ser_expr b ren c;
    ser_block b ren th;
    ser_block b ren el;
    Buffer.add_char b ')'
  | K.For (x, lo, hi, body) ->
    Buffer.add_string b "(for ";
    Buffer.add_string b (ren x);
    Buffer.add_char b ' ';
    ser_expr b ren lo;
    Buffer.add_char b ' ';
    ser_expr b ren hi;
    ser_block b ren body;
    Buffer.add_char b ')'

and ser_block b ren stmts =
  Buffer.add_string b " {";
  List.iter
    (fun s ->
      ser_stmt b ren s;
      Buffer.add_char b ' ')
    stmts;
  Buffer.add_char b '}'

let ser_named_arrays b ren tag xs =
  List.iter
    (fun (name, vs) ->
      Buffer.add_string b tag;
      Buffer.add_char b ' ';
      Buffer.add_string b (ren name);
      Buffer.add_string b " [";
      Array.iter
        (fun v ->
          ser_value b v;
          Buffer.add_char b ' ')
        vs;
      Buffer.add_string b "]\n")
    xs

(* [full] additionally serializes the filter body (work, tables,
   state); without it only the interface — rates and types — is
   written, which is exactly the skeleton shared by two graphs that
   differ in a single filter's implementation. *)
let ser_filter b ~full (f : K.filter) =
  Buffer.add_string b
    (Printf.sprintf "filter pop=%d push=%d peek=%d in=" f.K.pop_rate
       f.K.push_rate f.K.peek_rate);
  ser_ty b f.K.in_ty;
  Buffer.add_string b " out=";
  ser_ty b f.K.out_ty;
  Buffer.add_char b '\n';
  if full then begin
    let map = Hashtbl.create 16 in
    let next = ref 0 in
    let ren x =
      match Hashtbl.find_opt map x with
      | Some y -> y
      | None ->
        let y = "x" ^ string_of_int !next in
        incr next;
        Hashtbl.add map x y;
        y
    in
    ser_named_arrays b ren "table" f.K.tables;
    ser_named_arrays b ren "state" f.K.state;
    Buffer.add_string b "work";
    ser_block b ren f.K.work;
    Buffer.add_char b '\n'
  end

let ser_kind b ~full = function
  | G.NFilter f -> ser_filter b ~full f
  | G.NSplitter (Streamit.Ast.Duplicate, arity) ->
    Buffer.add_string b (Printf.sprintf "split duplicate %d\n" arity)
  | G.NSplitter (Streamit.Ast.Round_robin ws, arity) ->
    Buffer.add_string b
      (Printf.sprintf "split roundrobin %d [%s]\n" arity
         (String.concat " " (List.map string_of_int ws)))
  | G.NJoiner ws ->
    Buffer.add_string b
      (Printf.sprintf "join [%s]\n"
         (String.concat " " (List.map string_of_int ws)))

let serialize ?(full = true) (g : G.t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b "canonical-graph v1\n";
  Buffer.add_string b (Printf.sprintf "nodes %d\n" (Array.length g.G.nodes));
  Array.iter
    (fun (n : G.node) ->
      Buffer.add_string b (Printf.sprintf "node %d " n.G.id);
      ser_kind b ~full n.G.kind)
    g.G.nodes;
  let edges =
    List.sort
      (fun (a : G.edge) (c : G.edge) ->
        compare
          (a.G.src, a.G.src_port, a.G.dst, a.G.dst_port)
          (c.G.src, c.G.src_port, c.G.dst, c.G.dst_port))
      g.G.edges
  in
  List.iter
    (fun (e : G.edge) ->
      Buffer.add_string b
        (Printf.sprintf "edge %d.%d->%d.%d init=%d [" e.G.src e.G.src_port
           e.G.dst e.G.dst_port e.G.init_tokens);
      List.iter
        (fun v ->
          ser_value b v;
          Buffer.add_char b ' ')
        e.G.init_values;
      Buffer.add_string b "]\n")
    edges;
  (match g.G.entry with
  | Some v -> Buffer.add_string b (Printf.sprintf "entry %d\n" v)
  | None -> ());
  (match g.G.exit_ with
  | Some v -> Buffer.add_string b (Printf.sprintf "exit %d\n" v)
  | None -> ());
  Buffer.contents b

(* --- compile options --- *)

type options = {
  arch : Gpusim.Arch.t;
  num_sms : int option;
  coarsening : int;
  scheme : Swp_core.Compile.scheme;
  budget : int option;
  lns_rounds : int option;
  target : Kir.Ir.target;
      (** codegen backend the rendered kernel artifact is printed for;
          part of the key because the "kernel" section of an entry is a
          function of it — a WGSL request must never alias a CUDA one *)
}

let default_options =
  {
    arch = Gpusim.Arch.geforce_8800_gts_512;
    num_sms = None;
    coarsening = 1;
    scheme = Swp_core.Compile.Swp_coalesced;
    budget = None;
    lns_rounds = None;
    target = Kir.Ir.Cuda;
  }

let options_string (o : options) =
  let opt f = function None -> "none" | Some v -> f v in
  Printf.sprintf
    "arch=%s sms=%d coarsening=%d scheme=%s budget=%s lns=%s target=%s"
    o.arch.Gpusim.Arch.name
    (Option.value o.num_sms ~default:o.arch.Gpusim.Arch.num_sms)
    o.coarsening
    (match o.scheme with
    | Swp_core.Compile.Swp_coalesced -> "SWP"
    | Swp_core.Compile.Swp_non_coalesced -> "SWPNC")
    (opt string_of_int o.budget)
    (opt string_of_int o.lns_rounds)
    (Kir.Ir.target_name o.target)

let hash s = Digest.to_hex (Digest.string s)

let digest g o =
  hash (compiler_version ^ "\n" ^ options_string o ^ "\n" ^ serialize g)

(* Skeleton digest: everything except filter bodies.  Two graphs share
   a skeleton exactly when they differ only in filter implementations
   (same topology, rates and types) — the precondition for the serve
   daemon's incremental warm start. *)
let skeleton_digest g o =
  hash
    (compiler_version ^ "\n" ^ options_string o ^ "\nskeleton\n"
    ^ serialize ~full:false g)
