(* WGSL backend printer.

   WGSL (WebGPU) is the most restrictive of the four targets, so it
   drives the IR's portability constraints:

   - no pointers into storage buffers as function parameters, so each
     work function is specialized against its node's actual buffers
     ([w_in]/[w_out] from the lowering) and takes only integer bases;
   - [workgroupBarrier()] must sit in uniform control flow, so every
     barrier is emitted at loop level, never under a [tid] guard (the
     structural linter enforces this);
   - [switch] requires a [default] clause;
   - comparisons yield [bool], not [int]: value-position comparisons
     become [select(0, 1, cmp)], condition positions stay boolean;
   - shift amounts must be [u32].

   Channel buffers are declared as [array<f32>] storage regardless of
   element type (matching the CUDA backend's all-[float*] channel
   parameters); integer filters convert on access. *)

open Streamit

let ident = Ir.c_ident

let ty_name = function Types.TInt -> "i32" | Types.TFloat -> "f32"

let value_str = function
  | Types.VInt n -> string_of_int n
  | Types.VFloat x ->
    let s = Printf.sprintf "%.9g" x in
    let s =
      if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
      then s
      else s ^ ".0"
    in
    s ^ "f"

(* One specialized work function. *)
let fn_of_filter ~style ~fn_name ~src ~dst (f : Kernel.filter) =
  let buf = Buffer.create 1024 in
  let table_prefix = ident f.Kernel.name ^ "_" in
  let read_conv e =
    match f.Kernel.in_ty with
    | Types.TInt -> Printf.sprintf "i32(%s)" e
    | Types.TFloat -> e
  in
  Buffer.add_string buf
    (Printf.sprintf "fn %s(in_base: i32, out_base: i32, tid: i32) {\n" fn_name);
  Buffer.add_string buf "  var _pop: i32 = 0;\n  var _push: i32 = 0;\n";
  let tmp_counter = ref 0 in
  let fresh_tmp () =
    incr tmp_counter;
    Printf.sprintf "_t%d" !tmp_counter
  in
  let indent d = String.make (2 * (d + 1)) ' ' in
  (* [lower] renders to a value-position (int/float) expression;
     [lower_bool] to a condition-position (bool) expression. *)
  let rec lower ~in_cond pre = function
    | Kernel.Const v -> (pre, value_str v)
    | Kernel.Var x -> (pre, ident x)
    | Kernel.ArrayRef (a, i) ->
      let pre, ci = lower ~in_cond pre i in
      let name =
        if List.mem_assoc a f.Kernel.state then table_prefix ^ ident a
        else ident a
      in
      (pre, Printf.sprintf "%s[%s]" name ci)
    | Kernel.TableRef (t, i) ->
      let pre, ci = lower ~in_cond pre i in
      (pre, Printf.sprintf "%s%s[%s]" table_prefix (ident t) ci)
    | Kernel.Pop ->
      if in_cond then
        raise (Ir.Unsupported "pop() inside a conditional-expression arm");
      let t = fresh_tmp () in
      let idx = Ir.read_index style ~rate:(max 1 f.Kernel.pop_rate) ~n_expr:"_pop" in
      let line =
        Printf.sprintf "let %s: %s = %s; _pop++;" t (ty_name f.Kernel.in_ty)
          (read_conv (Printf.sprintf "%s[in_base + %s]" src idx))
      in
      (line :: pre, t)
    | Kernel.Peek d ->
      let pre, cd = lower ~in_cond pre d in
      let idx =
        Ir.read_index style ~rate:(max 1 f.Kernel.pop_rate)
          ~n_expr:(Printf.sprintf "_pop + (%s)" cd)
      in
      (pre, read_conv (Printf.sprintf "%s[in_base + %s]" src idx))
    | Kernel.Unop (op, e) -> (
      match op with
      | Kernel.Not ->
        let pre, cb = lower_bool ~in_cond pre e in
        (pre, Printf.sprintf "select(1, 0, %s)" cb)
      | _ ->
        let pre, ce = lower ~in_cond pre e in
        let r =
          match op with
          | Kernel.Neg -> Printf.sprintf "(-%s)" ce
          | Kernel.BitNot -> Printf.sprintf "(~%s)" ce
          | Kernel.Sin -> Printf.sprintf "sin(%s)" ce
          | Kernel.Cos -> Printf.sprintf "cos(%s)" ce
          | Kernel.Sqrt -> Printf.sprintf "sqrt(%s)" ce
          | Kernel.Exp -> Printf.sprintf "exp(%s)" ce
          | Kernel.Log -> Printf.sprintf "log(%s)" ce
          | Kernel.Abs -> Printf.sprintf "abs(%s)" ce
          | Kernel.ToFloat -> Printf.sprintf "f32(%s)" ce
          | Kernel.ToInt -> Printf.sprintf "i32(%s)" ce
          | Kernel.Not -> assert false
        in
        (pre, r))
    | Kernel.Binop (op, a, b) -> (
      match op with
      | Kernel.Eq | Kernel.Ne | Kernel.Lt | Kernel.Le | Kernel.Gt | Kernel.Ge
        ->
        let pre, cb = lower_bool ~in_cond pre (Kernel.Binop (op, a, b)) in
        (pre, Printf.sprintf "select(0, 1, %s)" cb)
      | _ ->
        let pre, ca = lower ~in_cond pre a in
        let pre, cb = lower ~in_cond pre b in
        let sym = Kernel.string_of_binop op in
        let r =
          match op with
          | Kernel.Shl | Kernel.Shr -> Printf.sprintf "(%s %s u32(%s))" ca sym cb
          | Kernel.Min | Kernel.Max -> Printf.sprintf "%s(%s, %s)" sym ca cb
          | _ -> Printf.sprintf "(%s %s %s)" ca sym cb
        in
        (pre, r))
    | Kernel.Cond (c, a, b) ->
      let pre, cc = lower_bool ~in_cond pre c in
      let pre, ca = lower ~in_cond:true pre a in
      let pre, cb = lower ~in_cond:true pre b in
      (pre, Printf.sprintf "select(%s, %s, %s)" cb ca cc)
  (* condition position: produce a bool expression *)
  and lower_bool ~in_cond pre = function
    | Kernel.Binop
        ( ((Kernel.Eq | Kernel.Ne | Kernel.Lt | Kernel.Le | Kernel.Gt
           | Kernel.Ge) as op),
          a,
          b ) ->
      let pre, ca = lower ~in_cond pre a in
      let pre, cb = lower ~in_cond pre b in
      (pre, Printf.sprintf "(%s %s %s)" ca (Kernel.string_of_binop op) cb)
    | Kernel.Unop (Kernel.Not, e) ->
      let pre, cb = lower_bool ~in_cond pre e in
      (pre, Printf.sprintf "(!%s)" cb)
    | e ->
      let pre, ce = lower ~in_cond pre e in
      (pre, Printf.sprintf "(%s != 0)" ce)
  in
  let flush_pre d pre =
    List.iter
      (fun line -> Buffer.add_string buf (indent d ^ line ^ "\n"))
      (List.rev pre)
  in
  let declared = Hashtbl.create 16 in
  let rec stmt d s =
    match s with
    | Kernel.Let (x, e) ->
      let pre, ce = lower ~in_cond:false [] e in
      flush_pre d pre;
      let x' = ident x in
      if Hashtbl.mem declared x' then
        Buffer.add_string buf (Printf.sprintf "%s%s = %s;\n" (indent d) x' ce)
      else begin
        Hashtbl.replace declared x' ();
        let ty = if Ir.is_int ~in_ty:f.Kernel.in_ty e then "i32" else "f32" in
        Buffer.add_string buf
          (Printf.sprintf "%svar %s: %s = %s;\n" (indent d) x' ty ce)
      end
    | Kernel.Assign (x, e) ->
      let pre, ce = lower ~in_cond:false [] e in
      flush_pre d pre;
      Buffer.add_string buf
        (Printf.sprintf "%s%s = %s;\n" (indent d) (ident x) ce)
    | Kernel.DeclArray (a, n) ->
      Buffer.add_string buf
        (Printf.sprintf "%svar %s: array<%s, %d>;\n" (indent d) (ident a)
           (ty_name f.Kernel.out_ty) (max 1 n))
    | Kernel.ArrayAssign (a, i, e) ->
      let pre, ci = lower ~in_cond:false [] i in
      let pre, ce = lower ~in_cond:false pre e in
      flush_pre d pre;
      let aname =
        if List.mem_assoc a f.Kernel.state then table_prefix ^ ident a
        else ident a
      in
      Buffer.add_string buf
        (Printf.sprintf "%s%s[%s] = %s;\n" (indent d) aname ci ce)
    | Kernel.Push e ->
      let pre, ce = lower ~in_cond:false [] e in
      flush_pre d pre;
      let idx =
        Ir.read_index style ~rate:(max 1 f.Kernel.push_rate) ~n_expr:"_push"
      in
      Buffer.add_string buf
        (Printf.sprintf "%s%s[out_base + %s] = f32(%s); _push++;\n" (indent d)
           dst idx ce)
    | Kernel.If (c, th, el) ->
      let pre, cc = lower_bool ~in_cond:false [] c in
      flush_pre d pre;
      Buffer.add_string buf (Printf.sprintf "%sif %s {\n" (indent d) cc);
      List.iter (stmt (d + 1)) th;
      if el <> [] then begin
        Buffer.add_string buf (Printf.sprintf "%s} else {\n" (indent d));
        List.iter (stmt (d + 1)) el
      end;
      Buffer.add_string buf (Printf.sprintf "%s}\n" (indent d))
    | Kernel.For (x, lo, hi, body) ->
      let pre, clo = lower ~in_cond:false [] lo in
      let pre, chi = lower ~in_cond:false pre hi in
      flush_pre d pre;
      let x' = ident x in
      Buffer.add_string buf
        (Printf.sprintf "%sfor (var %s: i32 = %s; %s < %s; %s++) {\n"
           (indent d) x' clo x' chi x');
      List.iter (stmt (d + 1)) body;
      Buffer.add_string buf (Printf.sprintf "%s}\n" (indent d))
  in
  List.iter (stmt 0) f.Kernel.work;
  Buffer.add_string buf "  _ = _pop;\n  _ = _push;\n}\n";
  Buffer.contents buf

(* Module-scope tables and state for one filter.  WGSL has no mutable
   module-scope storage outside var<private>/var<workgroup>; state
   arrays become var<private> (per-invocation — see the quirks table in
   DESIGN.md §16). *)
let globals_of_filter (f : Kernel.filter) =
  let buf = Buffer.create 256 in
  let table_prefix = ident f.Kernel.name ^ "_" in
  let emit_array kind name values =
    let ty =
      match values with
      | [||] -> "f32"
      | _ -> ty_name (Types.ty_of_value values.(0))
    in
    let n = max 1 (Array.length values) in
    if Array.length values = 0 then
      Buffer.add_string buf
        (Printf.sprintf "var<%s> %s%s: array<%s, %d>;\n" kind table_prefix
           (ident name) ty n)
    else begin
      Buffer.add_string buf
        (Printf.sprintf "var<%s> %s%s: array<%s, %d> = array<%s, %d>(" kind
           table_prefix (ident name) ty n ty n);
      Array.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (value_str v))
        values;
      Buffer.add_string buf ");\n"
    end
  in
  List.iter (fun (t, vs) -> emit_array "private" t vs) f.Kernel.tables;
  List.iter (fun (s, vs) -> emit_array "private" s vs) f.Kernel.state;
  Buffer.contents buf

let print (p : Ir.program) =
  let buf = Buffer.create 16384 in
  let h = p.Ir.header in
  Buffer.add_string buf
    (Printf.sprintf
       "// streamit_gpu artifact (wgsl)\n\
        // quality: %s (%s)\n\
        // II: %d (lower bound %d, binding %s)\n\
        // schedule signature: %s\n"
       h.Ir.h_quality h.Ir.h_rationale h.Ir.h_ii h.Ir.h_lower_bound
       h.Ir.h_binding h.Ir.h_signature);
  Buffer.add_string buf
    (Printf.sprintf
       "// dispatch: %d workgroups x %d threads; host loops handled by the \
        iterations uniform\n\n"
       p.Ir.grid p.Ir.block);
  (* storage bindings: channel buffers, then the I/O streams, then the
     iteration count *)
  let n_bufs = Array.length p.Ir.buffers in
  Array.iteri
    (fun i (b : Ir.buffer) ->
      Buffer.add_string buf
        (Printf.sprintf
           "@group(0) @binding(%d) var<storage, read_write> %s: array<f32>;\n"
           i b.Ir.b_name))
    p.Ir.buffers;
  Buffer.add_string buf
    (Printf.sprintf
       "@group(0) @binding(%d) var<storage, read> stream_in: array<f32>;\n"
       n_bufs);
  Buffer.add_string buf
    (Printf.sprintf
       "@group(0) @binding(%d) var<storage, read_write> stream_out: \
        array<f32>;\n"
       (n_bufs + 1));
  Buffer.add_string buf
    (Printf.sprintf "@group(0) @binding(%d) var<uniform> iterations: i32;\n\n"
       (n_bufs + 2));
  Buffer.add_string buf
    (Printf.sprintf "var<workgroup> stage_on: array<i32, %d>;\n\n" p.Ir.stages);
  (* per-node region-offset helpers *)
  List.iter
    (fun (v, tokens) ->
      Buffer.add_string buf
        (Printf.sprintf
           "fn region_%d(it: i32) -> i32 { return ((it %% %d) + %d) %% %d * \
            %d; }\n"
           v p.Ir.ring p.Ir.ring p.Ir.ring tokens))
    p.Ir.regions;
  Buffer.add_char buf '\n';
  (* filter globals, then the specialized work functions *)
  List.iter
    (fun (w : Ir.work_fn) ->
      let g = globals_of_filter w.Ir.w_filter in
      if g <> "" then begin
        Buffer.add_string buf g;
        Buffer.add_char buf '\n'
      end;
      Buffer.add_string buf
        (fn_of_filter ~style:p.Ir.style ~fn_name:w.Ir.w_name ~src:w.Ir.w_in
           ~dst:w.Ir.w_out w.Ir.w_filter);
      Buffer.add_char buf '\n')
    p.Ir.work_fns;
  (* the software-pipelined kernel *)
  Buffer.add_string buf
    (Printf.sprintf "@compute @workgroup_size(%d, 1, 1)\n" p.Ir.block);
  Buffer.add_string buf
    "fn swp_kernel(@builtin(local_invocation_id) lid: vec3<u32>,\n\
    \              @builtin(workgroup_id) wid: vec3<u32>) {\n";
  Buffer.add_string buf
    "  let tid: i32 = i32(lid.x);\n  let sm: i32 = i32(wid.x);\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  // staging predicates, one per pipeline stage (depth %d)\n\
       \  if tid == 0 { for (var s: i32 = 0; s < %d; s++) { stage_on[s] = 0; \
        } }\n\
       \  workgroupBarrier();\n"
       p.Ir.stages p.Ir.stages);
  Buffer.add_string buf
    (Printf.sprintf
       "  for (var it: i32 = 0; it < iterations + %d; it++) {\n\
       \    if tid == 0 {\n\
       \      for (var s: i32 = %d; s > 0; s--) { stage_on[s] = \
        stage_on[s-1]; }\n\
       \      stage_on[0] = select(0, 1, it < iterations);\n\
       \    }\n\
       \    workgroupBarrier();\n"
       p.Ir.stages (p.Ir.stages - 1));
  Buffer.add_string buf "    switch sm {\n";
  List.iter
    (fun (c : Ir.sm_case) ->
      Buffer.add_string buf (Printf.sprintf "      case %d: {\n" c.Ir.sm);
      List.iter
        (fun (f : Ir.fire) ->
          Buffer.add_string buf
            (Printf.sprintf
               "        // (%s, k=%d) o=%d f=%d threads=%d\n\
               \        if stage_on[%d] != 0 && tid < %d {\n\
               \          %s(region_%d(it - %d), region_%d(it - %d), tid);\n\
               \        }\n"
               f.Ir.f_name f.Ir.f_k f.Ir.f_o f.Ir.f_stage f.Ir.f_threads
               f.Ir.f_stage f.Ir.f_threads f.Ir.f_fn f.Ir.f_node f.Ir.f_stage
               f.Ir.f_node f.Ir.f_stage))
        c.Ir.fires;
      Buffer.add_string buf "      }\n")
    p.Ir.cases;
  Buffer.add_string buf "      default: {}\n    }\n";
  Buffer.add_string buf
    "    // II boundary\n    workgroupBarrier();\n  }\n}\n";
  Buffer.contents buf
