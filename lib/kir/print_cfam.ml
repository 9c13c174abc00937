(* C-family backend printers: CUDA, OpenCL and Metal.

   The three are C dialects, so one printer serves them all and the
   [dialect] records below spell everything that differs:

   - qualifiers: CUDA [__constant__]/[__device__]/[__shared__]; OpenCL
     [__constant]/[__global]/[__local]; Metal
     [constant]/[device]/[threadgroup];
   - math builtins: CUDA's [sinf]/[fabsf] against the overloaded
     [sin]/[fabs] of OpenCL and Metal;
   - thread and block ids and the barrier;
   - filter state: program-scope [__device__]/[__global] storage
     (OpenCL 2.0, noted in the emitted header), or — MSL has no
     program-scope mutable device storage — extra kernel buffer
     parameters threaded through to the work functions, which the host
     pre-initializes (the initializers are listed in the launch note);
   - the header and the host side: a CUDA [main], or a launch note.

   CUDA output is pinned byte for byte by test/fixtures/codegen/*.cu.
   OpenCL and Metal cannot be compiled in CI; the structural linter and
   the KIR-eval oracle leg carry their correctness (DESIGN.md §16). *)

open Streamit

type dialect = {
  target : Ir.target;
  title : string;  (** after "streamit_gpu artifact" *)
  prelude : string;  (** closes the header comment; includes *)
  fn_q : string;  (** device-function prefix *)
  const_q : string;  (** constant tables *)
  state_q : string option;  (** program-scope state; [None]: buffer params *)
  in_ptr : string;  (** read-only buffer pointer qualifiers *)
  out_ptr : string;  (** writable buffer pointer qualifiers *)
  math_suffix : string;  (** single-precision builtin suffix *)
  kernel_q : string;
  tid : string;
  sm : string;
  shared_q : string;
  barrier : string;
}

let cuda_includes = "#include <cuda_runtime.h>\n#include <cstdio>\n\n"

let cuda =
  {
    target = Ir.Cuda;
    title = "";
    prelude = " */\n" ^ cuda_includes;
    fn_q = "static __device__ ";
    const_q = "__constant__";
    state_q = Some "__device__";
    in_ptr = "const ";
    out_ptr = "";
    math_suffix = "f";
    kernel_q = "__global__";
    tid = "threadIdx.x";
    sm = "blockIdx.x";
    shared_q = "__shared__";
    barrier = "__syncthreads();";
  }

let opencl =
  {
    target = Ir.Opencl;
    title = " (opencl)";
    prelude = " * program-scope __global state requires OpenCL C 2.0\n */\n\n";
    fn_q = "static ";
    const_q = "__constant";
    state_q = Some "__global";
    in_ptr = "__global const ";
    out_ptr = "__global ";
    math_suffix = "";
    kernel_q = "__kernel";
    tid = "(int)get_local_id(0)";
    sm = "(int)get_group_id(0)";
    shared_q = "__local";
    barrier = "barrier(CLK_LOCAL_MEM_FENCE);";
  }

let metal =
  {
    target = Ir.Metal;
    title = " (metal)";
    prelude = " */\n#include <metal_stdlib>\nusing namespace metal;\n\n";
    fn_q = "static ";
    const_q = "constant";
    state_q = None;
    in_ptr = "const device ";
    out_ptr = "device ";
    math_suffix = "";
    kernel_q = "kernel";
    tid = "(int)tid_u";
    sm = "(int)sm_u";
    shared_q = "threadgroup";
    barrier = "threadgroup_barrier(mem_flags::mem_threadgroup);";
  }

let dialect = function
  | Ir.Cuda -> cuda
  | Ir.Opencl -> opencl
  | Ir.Metal -> metal
  | Ir.Wgsl -> invalid_arg "Print_cfam: WGSL is not a C dialect"

let ident = Ir.c_ident

let work_fn_name f = "work_" ^ ident f.Kernel.name

let c_ty = function Types.TInt -> "int" | Types.TFloat -> "float"

let c_value = function
  | Types.VInt n -> string_of_int n
  | Types.VFloat x ->
    let s = Printf.sprintf "%.9gf" x in
    (* ensure a decimal point so the f suffix parses *)
    if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
    then s
    else String.sub s 0 (String.length s - 1) ^ ".0f"

let unop_c d (op : Kernel.unop) arg =
  let call f = Printf.sprintf "%s%s(%s)" f d.math_suffix arg in
  match op with
  | Kernel.Neg -> Printf.sprintf "(-%s)" arg
  | Kernel.Not -> Printf.sprintf "(!%s)" arg
  | Kernel.BitNot -> Printf.sprintf "(~%s)" arg
  | Kernel.Sin -> call "sin"
  | Kernel.Cos -> call "cos"
  | Kernel.Sqrt -> call "sqrt"
  | Kernel.Exp -> call "exp"
  | Kernel.Log -> call "log"
  | Kernel.Abs -> call "fabs"
  | Kernel.ToFloat -> Printf.sprintf "((float)%s)" arg
  | Kernel.ToInt -> Printf.sprintf "((int)%s)" arg

let binop_c (op : Kernel.binop) a b =
  match op with
  | Kernel.Min | Kernel.Max ->
    Printf.sprintf "%s(%s, %s)" (Kernel.string_of_binop op) a b
  | _ -> Printf.sprintf "(%s %s %s)" a (Kernel.string_of_binop op) b

let elem_ty values =
  if Array.length values = 0 then "float"
  else c_ty (Types.ty_of_value values.(0))

let add_values buf values =
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (c_value v))
    values

(* The state arrays a filter takes as buffer parameters, in dialects
   without program-scope mutable storage: (param name, elem ty, values). *)
let state_params d (f : Kernel.filter) =
  match d.state_q with
  | Some _ -> []
  | None ->
    List.map
      (fun (sname, values) ->
        (ident f.Kernel.name ^ "_" ^ ident sname, elem_ty values, values))
      f.Kernel.state

(* One filter's program-scope arrays and its work function.  Pops
   encountered in an expression are hoisted into fresh temporaries first
   (in left-to-right evaluation order), so the emitted C never relies on
   C's unspecified evaluation order.
   @raise Ir.Unsupported on a pop inside a conditional-expression arm. *)
let fn_of_filter ?(style = Ir.Coalesced) ?fn_name t (f : Kernel.filter) =
  let d = dialect t in
  let fn_name = match fn_name with Some n -> n | None -> work_fn_name f in
  let buf = Buffer.create 1024 in
  let table_prefix = ident f.Kernel.name ^ "_" in
  let decl q (name, values) =
    Buffer.add_string buf
      (Printf.sprintf "%s %s %s%s[%d] = { " q (elem_ty values) table_prefix
         (ident name) (Array.length values));
    add_values buf values;
    Buffer.add_string buf " };\n"
  in
  List.iter (decl d.const_q) f.Kernel.tables;
  Option.iter (fun q -> List.iter (decl q) f.Kernel.state) d.state_q;
  let in_ty = c_ty f.Kernel.in_ty and out_ty = c_ty f.Kernel.out_ty in
  let extra =
    state_params d f
    |> List.map (fun (name, ty, _) -> Printf.sprintf ", %s%s* %s" d.out_ptr ty name)
    |> String.concat ""
  in
  Buffer.add_string buf
    (Printf.sprintf "%svoid %s(%s%s* in, %s%s* out, int tid%s)\n{\n" d.fn_q
       fn_name d.in_ptr in_ty d.out_ptr out_ty extra);
  Buffer.add_string buf "  int _pop = 0;\n  int _push = 0;\n";
  let tmp_counter = ref 0 in
  let fresh_tmp () =
    incr tmp_counter;
    Printf.sprintf "_t%d" !tmp_counter
  in
  let array_name a =
    if List.mem_assoc a f.Kernel.state then table_prefix ^ ident a else ident a
  in
  (* Lower an expression to a C expression string, appending hoisted pop
     temporaries to [pre] (a list of lines, reversed). *)
  let rec lower ~in_cond pre = function
    | Kernel.Const v -> (pre, c_value v)
    | Kernel.Var x -> (pre, ident x)
    | Kernel.ArrayRef (a, i) ->
      let pre, ci = lower ~in_cond pre i in
      (pre, Printf.sprintf "%s[%s]" (array_name a) ci)
    | Kernel.TableRef (t, i) ->
      let pre, ci = lower ~in_cond pre i in
      (pre, Printf.sprintf "%s%s[%s]" table_prefix (ident t) ci)
    | Kernel.Pop ->
      if in_cond then
        raise (Ir.Unsupported "pop() inside a conditional-expression arm");
      let t = fresh_tmp () in
      let idx =
        Ir.read_index style ~rate:(max 1 f.Kernel.pop_rate) ~n_expr:"_pop"
      in
      (Printf.sprintf "%s %s = in[%s]; _pop++;" in_ty t idx :: pre, t)
    | Kernel.Peek e ->
      let pre, ce = lower ~in_cond pre e in
      let idx =
        Ir.read_index style ~rate:(max 1 f.Kernel.pop_rate)
          ~n_expr:(Printf.sprintf "_pop + (%s)" ce)
      in
      (pre, Printf.sprintf "in[%s]" idx)
    | Kernel.Unop (op, e) ->
      let pre, ce = lower ~in_cond pre e in
      (pre, unop_c d op ce)
    | Kernel.Binop (op, a, b) ->
      let pre, ca = lower ~in_cond pre a in
      let pre, cb = lower ~in_cond pre b in
      (pre, binop_c op ca cb)
    | Kernel.Cond (c, a, b) ->
      let pre, cc = lower ~in_cond pre c in
      let pre, ca = lower ~in_cond:true pre a in
      let pre, cb = lower ~in_cond:true pre b in
      (pre, Printf.sprintf "(%s ? %s : %s)" cc ca cb)
  in
  (* one line at nesting level [lvl] *)
  let line lvl fmt =
    Printf.ksprintf
      (fun s -> Buffer.add_string buf (String.make (2 * (lvl + 1)) ' ' ^ s ^ "\n"))
      fmt
  in
  let flush lvl pre = List.iter (line lvl "%s") (List.rev pre) in
  let expr lvl e =
    let pre, ce = lower ~in_cond:false [] e in
    flush lvl pre;
    ce
  in
  let declared = Hashtbl.create 16 in
  let rec stmt lvl = function
    | Kernel.Let (x, e) ->
      let ce = expr lvl e and x' = ident x in
      if Hashtbl.mem declared x' then line lvl "%s = %s;" x' ce
      else begin
        Hashtbl.replace declared x' ();
        let ty = if Ir.is_int ~in_ty:f.Kernel.in_ty e then "int" else "float" in
        line lvl "%s %s = %s;" ty x' ce
      end
    | Kernel.Assign (x, e) -> line lvl "%s = %s;" (ident x) (expr lvl e)
    | Kernel.DeclArray (a, n) -> line lvl "%s %s[%d] = {0};" out_ty (ident a) n
    | Kernel.ArrayAssign (a, i, e) ->
      let pre, ci = lower ~in_cond:false [] i in
      let pre, ce = lower ~in_cond:false pre e in
      flush lvl pre;
      line lvl "%s[%s] = %s;" (array_name a) ci ce
    | Kernel.Push e ->
      let ce = expr lvl e in
      let idx =
        Ir.read_index style ~rate:(max 1 f.Kernel.push_rate) ~n_expr:"_push"
      in
      line lvl "out[%s] = %s; _push++;" idx ce
    | Kernel.If (c, th, el) ->
      let cc = expr lvl c in
      line lvl "if (%s) {" cc;
      List.iter (stmt (lvl + 1)) th;
      if el <> [] then begin
        line lvl "} else {";
        List.iter (stmt (lvl + 1)) el
      end;
      line lvl "}"
    | Kernel.For (x, lo, hi, body) ->
      let pre, clo = lower ~in_cond:false [] lo in
      let pre, chi = lower ~in_cond:false pre hi in
      flush lvl pre;
      let x' = ident x in
      line lvl "for (int %s = %s; %s < %s; %s++) {" x' clo x' chi x';
      List.iter (stmt (lvl + 1)) body;
      line lvl "}"
  in
  List.iter (stmt 0) f.Kernel.work;
  Buffer.add_string buf "  (void)_pop; (void)_push;\n}\n";
  Buffer.contents buf

(* Stand-alone CUDA profiling executable for one filter (phase 1 of
   Fig. 5): a kernel that fires the filter [numfirings/blockDim.x] times
   per thread, plus a [main] timing it with CUDA events. *)
let profile_driver (f : Kernel.filter) ~numfirings =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf cuda_includes;
  Buffer.add_string buf (fn_of_filter Ir.Cuda f);
  Buffer.add_string buf
    (Printf.sprintf
       "\n\
        __global__ void profile_kernel(const float* in, float* out)\n\
        {\n\
       \  int tid = threadIdx.x;\n\
       \  int iters = %d / blockDim.x;\n\
       \  for (int i = 0; i < iters; i++)\n\
       \    %s(in, out, tid);\n\
        }\n\n"
       numfirings (work_fn_name f));
  Buffer.add_string buf
    (Printf.sprintf
       "int main(int argc, char** argv)\n\
        {\n\
       \  int threads = argc > 1 ? atoi(argv[1]) : 128;\n\
       \  float *in, *out;\n\
       \  cudaMalloc(&in, %d * sizeof(float));\n\
       \  cudaMalloc(&out, %d * sizeof(float));\n\
       \  cudaEvent_t start, stop;\n\
       \  cudaEventCreate(&start); cudaEventCreate(&stop);\n\
       \  cudaEventRecord(start);\n\
       \  profile_kernel<<<1, threads>>>(in, out);\n\
       \  cudaEventRecord(stop);\n\
       \  cudaEventSynchronize(stop);\n\
       \  float ms = 0;\n\
       \  cudaEventElapsedTime(&ms, start, stop);\n\
       \  printf(\"%%f\\n\", ms);\n\
       \  return 0;\n\
        }\n"
       (numfirings * max 1 f.Kernel.peek_rate)
       (numfirings * max 1 f.Kernel.push_rate));
  Buffer.contents buf

(* All state buffer params of the program, in work-function order — the
   order they are appended to the kernel signature. *)
let program_state_params d (p : Ir.program) =
  List.concat_map (fun (w : Ir.work_fn) -> state_params d w.Ir.w_filter)
    p.Ir.work_fns

let kernel_params d (p : Ir.program) =
  let streams =
    List.map
      (fun (b : Ir.buffer) -> d.out_ptr ^ "float* " ^ b.Ir.b_name)
      (Array.to_list p.Ir.buffers)
    @ [ d.in_ptr ^ "float* stream_in"; d.out_ptr ^ "float* stream_out" ]
  in
  match d.target with
  | Ir.Metal ->
    (* every MSL argument binds to a numbered buffer slot *)
    List.mapi
      (fun i s -> Printf.sprintf "%s [[buffer(%d)]]" s i)
      (streams
      @ [ "constant int& iterations" ]
      @ List.map
          (fun (name, ty, _) -> Printf.sprintf "device %s* %s" ty name)
          (program_state_params d p))
    @ [ "uint tid_u [[thread_position_in_threadgroup]]";
        "uint sm_u [[threadgroup_position_in_grid]]" ]
    |> String.concat ",\n                       "
  | _ -> String.concat ", " (streams @ [ "int iterations" ])

(* The host side: a CUDA [main] that allocates the channel buffers
   (Table II sizes) and launches the kernel, or a launch note. *)
let host d buf (p : Ir.program) =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  match d.target with
  | Ir.Cuda ->
    add "\nint main()\n{\n";
    List.iter
      (fun (name, bytes) -> add "  float* %s; cudaMalloc(&%s, %d);\n" name name bytes)
      p.Ir.allocs;
    add
      "  float *stream_in, *stream_out;\n\
       \  /* input shuffled on the host per eq. (9) before upload */\n\
       \  cudaMalloc(&stream_in, 1 << 20);\n\
       \  cudaMalloc(&stream_out, 1 << 20);\n";
    add "  swp_kernel<<<%d, %d>>>(%s);\n" p.Ir.grid p.Ir.block
      (String.concat ", "
         (List.map fst p.Ir.allocs
         @ [ "stream_in"; "stream_out"; string_of_int p.Ir.iterations ]));
    add "  cudaDeviceSynchronize();\n  return 0;\n}\n"
  | _ ->
    let alloc =
      if d.target = Ir.Opencl then begin
        add "\n/* host launch (OpenCL):\n";
        add " *   clEnqueueNDRangeKernel: global = %d x %d, local = %d\n"
          p.Ir.grid p.Ir.block p.Ir.block;
        "clCreateBuffer"
      end
      else begin
        add "\n/* host launch (Metal):\n";
        add " *   dispatchThreadgroups: %d threadgroups x %d threads\n"
          p.Ir.grid p.Ir.block;
        "newBuffer"
      end
    in
    List.iter
      (fun (name, bytes) -> add " *   %s %s: %d bytes\n" alloc name bytes)
      p.Ir.allocs;
    add
      " *   stream_in/stream_out: 1 << 20 bytes, input shuffled per eq. (9); \
       iterations = %d\n"
      p.Ir.iterations;
    List.iter
      (fun (name, ty, values) ->
        add " *   pre-initialize %s (%s[%d]) = { " name ty (Array.length values);
        add_values buf values;
        add " }\n")
      (program_state_params d p);
    add " */\n"

let print t (p : Ir.program) =
  let d = dialect t in
  let buf = Buffer.create 16384 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* Provenance header: every artifact traces back to the schedule
     decision that produced it.  Deterministic fields only — the header
     must not break byte-identical serial-vs-parallel codegen. *)
  let h = p.Ir.header in
  add
    "/* streamit_gpu artifact%s\n\
    \ * quality: %s (%s)\n\
    \ * II: %d (lower bound %d, binding %s)\n\
    \ * schedule signature: %s\n\
     %s"
    d.title h.Ir.h_quality h.Ir.h_rationale h.Ir.h_ii h.Ir.h_lower_bound
    h.Ir.h_binding h.Ir.h_signature d.prelude;
  (* per-node region-offset helpers: ring of (stages+1) steady-state
     regions indexed by iteration *)
  List.iter
    (fun (v, tokens) ->
      add "%sinline int region_%d(int it) { return ((it %% %d) + %d) %% %d * %d; }\n"
        d.fn_q v p.Ir.ring p.Ir.ring p.Ir.ring tokens)
    p.Ir.regions;
  add "\n";
  List.iter
    (fun (w : Ir.work_fn) ->
      add "%s\n"
        (fn_of_filter ~style:p.Ir.style ~fn_name:w.Ir.w_name t w.Ir.w_filter))
    p.Ir.work_fns;
  (* The device kernel: staging predicates, per-SM switch. *)
  let stages = p.Ir.stages in
  add "%s void swp_kernel(%s)\n{\n" d.kernel_q (kernel_params d p);
  add "  int tid = %s;\n  int sm = %s;\n" d.tid d.sm;
  add
    "  /* staging predicates, one per pipeline stage (depth %d) */\n\
    \  %s int stage_on[%d];\n\
    \  if (tid == 0) for (int s = 0; s < %d; s++) stage_on[s] = 0;\n\
    \  %s\n"
    stages d.shared_q stages stages d.barrier;
  add
    "  for (int it = 0; it < iterations + %d; it++) {\n\
    \    if (tid == 0) { for (int s = %d; s > 0; s--) stage_on[s] = \
     stage_on[s-1]; stage_on[0] = (it < iterations); }\n\
    \    %s\n"
    stages (stages - 1) d.barrier;
  add "    switch (sm) {\n";
  let fn_of_node = Hashtbl.create 16 in
  List.iter
    (fun (w : Ir.work_fn) -> Hashtbl.replace fn_of_node w.Ir.w_node w)
    p.Ir.work_fns;
  List.iter
    (fun (c : Ir.sm_case) ->
      add "    case %d: {\n" c.Ir.sm;
      List.iter
        (fun (fr : Ir.fire) ->
          let w = Hashtbl.find fn_of_node fr.Ir.f_node in
          let extra =
            state_params d w.Ir.w_filter
            |> List.map (fun (name, _, _) -> ", " ^ name)
            |> String.concat ""
          in
          add
            "      /* (%s, k=%d) o=%d f=%d threads=%d */\n\
            \      if (stage_on[%d] && tid < %d)\n\
            \        %s(%s + region_%d(it - %d), %s + region_%d(it - %d), \
             tid%s);\n"
            fr.Ir.f_name fr.Ir.f_k fr.Ir.f_o fr.Ir.f_stage fr.Ir.f_threads
            fr.Ir.f_stage fr.Ir.f_threads fr.Ir.f_fn w.Ir.w_in fr.Ir.f_node
            fr.Ir.f_stage w.Ir.w_out fr.Ir.f_node fr.Ir.f_stage extra)
        c.Ir.fires;
      add "      break; }\n")
    p.Ir.cases;
  add "    }\n    /* II boundary */\n  }\n}\n";
  host d buf p;
  Buffer.contents buf
