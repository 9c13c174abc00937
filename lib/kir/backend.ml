(* Backend dispatch: one lowered program, two printers (WGSL, and the
   C family for CUDA, OpenCL and Metal).  Every target is printed
   inside one [codegen] span and counted by the same metrics. *)

let m_lines = Obs.Metrics.counter "codegen.lines"
let m_filters = Obs.Metrics.counter "codegen.filters"

let emit (t : Ir.target) (p : Ir.program) =
  Obs.Trace.with_span "codegen" @@ fun () ->
  let src =
    match t with
    | Ir.Wgsl -> Print_wgsl.print p
    | Ir.Cuda | Ir.Opencl | Ir.Metal -> Print_cfam.print t p
  in
  let lines = String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 src in
  let filters = List.length p.Ir.work_fns in
  Obs.Metrics.add m_lines lines;
  Obs.Metrics.add m_filters filters;
  Obs.Trace.add_attr "lines" (Obs.Trace.Int lines);
  Obs.Trace.add_attr "filters" (Obs.Trace.Int filters);
  src

(* Lower once, print one target. *)
let emit_compiled (t : Ir.target) (c : Swp_core.Compile.compiled) =
  emit t (Lower.lower c)

(* Emit and structurally lint in one step. *)
let emit_checked (t : Ir.target) (p : Ir.program) =
  let src = emit t p in
  Result.map (fun () -> src) (Lint.check_err t p src)
