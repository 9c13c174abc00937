(* Lowering: Swp_core schedules + buffer layouts -> KIR.

   Everything the printers and the evaluator need is computed here,
   once, so the backends cannot drift from each other: buffer naming,
   work-function naming, per-SM fire ordering and the provenance
   header are all decided in this pass.

   Byte-compatibility invariant: driving the CUDA printer with the
   lowered program reproduces the historical one-pass CUDA generator
   byte for byte on every benchmark (pinned by the golden fixtures
   under test/fixtures/codegen/), so the lowering must keep the same
   orderings that generator used — work functions in
   node order, buffers in graph edge order, fires grouped by SM and
   stably sorted by start offset.

   Name generation is schedule-local: the [used] table below is fresh
   per [lower] call, so compiling two graphs in one process can never
   leak a suffix from one into the other (the PR 4 gensym lesson). *)

open Streamit
module C = Swp_core.Compile

let splitter_filter (sp : Ast.splitter) branches =
  match sp with
  | Ast.Duplicate ->
    let body =
      Kernel.Build.(
        [ let_ "x" pop ]
        @ List.init branches (fun _ -> push (v "x")))
    in
    Kernel.make_filter ~name:"duplicate_splitter" ~pop:1 ~push:branches body
  | Ast.Round_robin ws ->
    let sum = List.fold_left ( + ) 0 ws in
    let body = List.init sum (fun _ -> Kernel.Push Kernel.Pop) in
    Kernel.make_filter ~name:"rr_splitter" ~pop:sum ~push:sum body

let joiner_filter ws =
  let sum = List.fold_left ( + ) 0 ws in
  let body = List.init sum (fun _ -> Kernel.Push Kernel.Pop) in
  Kernel.make_filter ~name:"rr_joiner" ~pop:sum ~push:sum body

let filter_of_node (node : Graph.node) =
  match node.Graph.kind with
  | Graph.NFilter f -> Kernel.rename (fun x -> x) { f with name = node.Graph.name }
  | Graph.NSplitter (sp, k) ->
    { (splitter_filter sp k) with Kernel.name = node.Graph.name }
  | Graph.NJoiner ws -> { (joiner_filter ws) with Kernel.name = node.Graph.name }

let style_of (c : C.compiled) =
  match c.C.scheme with
  | C.Swp_coalesced -> Ir.Coalesced
  | C.Swp_non_coalesced -> Ir.Natural

let buffer_name (e : Graph.edge) =
  Printf.sprintf "buf_%d_%d__%d_%d" e.Graph.src e.Graph.src_port e.Graph.dst
    e.Graph.dst_port

(* Schedule-local fresh-name table: the base name wins on first claim;
   later collisions get a deterministic numeric suffix. *)
let namer () =
  let used = Hashtbl.create 16 in
  fun base ->
    if not (Hashtbl.mem used base) then begin
      Hashtbl.add used base ();
      base
    end
    else begin
      let rec pick n =
        let cand = Printf.sprintf "%s_%d" base n in
        if Hashtbl.mem used cand then pick (n + 1)
        else begin
          Hashtbl.add used cand ();
          cand
        end
      in
      pick 2
    end

let lower (c : C.compiled) : Ir.program =
  let g = c.C.graph in
  let cfg = c.C.config in
  let sched = c.C.schedule in
  let sizing = c.C.sizing in
  let stats = c.C.search_stats in
  let stages = Swp_core.Swp_schedule.stages sched in
  let header =
    {
      Ir.h_quality = C.quality_name c.C.quality;
      h_rationale = C.rationale_name c.C.prov.C.rationale;
      h_ii = stats.Swp_core.Ii_search.achieved_ii;
      h_lower_bound = stats.Swp_core.Ii_search.lower_bound;
      h_binding = stats.Swp_core.Ii_search.bounds.Swp_core.Mii.binding;
      h_signature = Swp_core.Report.schedule_signature c;
    }
  in
  (* buffers, in graph edge order *)
  let buffers =
    Array.of_list
      (List.map
         (fun (e : Graph.edge) ->
           let prod_rate = Graph.production g e in
           let prod_threads = cfg.Swp_core.Select.threads.(e.Graph.src) in
           let prod_reps = cfg.Swp_core.Select.reps.(e.Graph.src) in
           let elem =
             match (Graph.node g e.Graph.src).Graph.kind with
             | Graph.NFilter f -> f.Kernel.out_ty
             | Graph.NSplitter _ | Graph.NJoiner _ -> (
               (* splitters/joiners forward tokens; type comes from the
                  consumer side *)
               match (Graph.node g e.Graph.dst).Graph.kind with
               | Graph.NFilter f -> f.Kernel.in_ty
               | _ -> Streamit.Types.TFloat)
           in
           {
             Ir.b_name = buffer_name e;
             b_src = e.Graph.src;
             b_src_port = e.Graph.src_port;
             b_dst = e.Graph.dst;
             b_dst_port = e.Graph.dst_port;
             b_elem = elem;
             b_prod_rate = prod_rate;
             b_prod_threads = prod_threads;
             b_prod_reps = prod_reps;
             b_region_tokens = prod_rate * prod_threads * prod_reps;
             b_init = e.Graph.init_values;
           })
         g.Graph.edges)
  in
  let chan_index = Hashtbl.create 16 in
  Array.iteri
    (fun i (b : Ir.buffer) ->
      Hashtbl.replace chan_index (b.Ir.b_src, b.Ir.b_src_port, b.Ir.b_dst,
                                  b.Ir.b_dst_port) i)
    buffers;
  let chan_of_edge (e : Graph.edge) =
    Ir.Chan
      (Hashtbl.find chan_index
         (e.Graph.src, e.Graph.src_port, e.Graph.dst, e.Graph.dst_port))
  in
  (* work functions, in node order, with schedule-local names *)
  let fresh = namer () in
  let fn_names =
    Array.map
      (fun (node : Graph.node) ->
        fresh ("work_" ^ Ir.c_ident node.Graph.name))
      g.Graph.nodes
  in
  let port0_in v =
    match Graph.in_edges g v with
    | e :: _ -> buffer_name e
    | [] -> "stream_in"
  in
  let port0_out v =
    match Graph.out_edges g v with
    | e :: _ -> buffer_name e
    | [] -> "stream_out"
  in
  let work_fns =
    Array.to_list
      (Array.map
         (fun (node : Graph.node) ->
           let v = node.Graph.id in
           {
             Ir.w_node = v;
             w_name = fn_names.(v);
             w_filter = filter_of_node node;
             w_in = port0_in v;
             w_out = port0_out v;
           })
         g.Graph.nodes)
  in
  (* per-node region steady tokens (the region_<v> helpers) *)
  let regions =
    Array.to_list
      (Array.map
         (fun (node : Graph.node) ->
           let v = node.Graph.id in
           let tokens =
             match Graph.out_edges g v with
             | e :: _ -> Swp_core.Buffer_layout.steady_tokens g cfg e
             | [] -> 0
           in
           (v, tokens))
         g.Graph.nodes)
  in
  (* fires grouped by SM exactly as the one-pass generator did: entries
     consed per SM (reversing schedule order), then stably sorted by
     start offset *)
  let fire_of_entry (e : Swp_core.Swp_schedule.entry) =
    let v = e.Swp_core.Swp_schedule.inst.Swp_core.Instances.node in
    let node = Graph.node g v in
    let ins =
      List.init (Graph.in_arity node) (fun p ->
          match
            List.find_opt
              (fun (ed : Graph.edge) -> ed.Graph.dst_port = p)
              (Graph.in_edges g v)
          with
          | Some ed -> chan_of_edge ed
          | None -> Ir.External)
    in
    let outs =
      List.init (Graph.out_arity node) (fun p ->
          match
            List.find_opt
              (fun (ed : Graph.edge) -> ed.Graph.src_port = p)
              (Graph.out_edges g v)
          with
          | Some ed -> chan_of_edge ed
          | None -> Ir.External)
    in
    {
      Ir.f_node = v;
      f_name = node.Graph.name;
      f_k = e.Swp_core.Swp_schedule.inst.Swp_core.Instances.k;
      f_o = e.Swp_core.Swp_schedule.o;
      f_stage = e.Swp_core.Swp_schedule.f;
      f_threads = cfg.Swp_core.Select.threads.(v);
      f_reps = cfg.Swp_core.Select.reps.(v);
      f_fn = fn_names.(v);
      f_kind = node.Graph.kind;
      f_ins = ins;
      f_outs = outs;
    }
  in
  let by_sm = Array.make sched.Swp_core.Swp_schedule.num_sms [] in
  List.iter
    (fun (e : Swp_core.Swp_schedule.entry) ->
      by_sm.(e.Swp_core.Swp_schedule.sm) <-
        e :: by_sm.(e.Swp_core.Swp_schedule.sm))
    sched.Swp_core.Swp_schedule.entries;
  let cases = ref [] in
  Array.iteri
    (fun sm entries ->
      if entries <> [] then begin
        let ordered =
          List.sort
            (fun (a : Swp_core.Swp_schedule.entry) b ->
              compare a.Swp_core.Swp_schedule.o b.Swp_core.Swp_schedule.o)
            entries
        in
        cases := { Ir.sm; fires = List.map fire_of_entry ordered } :: !cases
      end)
    by_sm;
  let allocs =
    List.map
      (fun ((e : Graph.edge), bytes) -> (buffer_name e, bytes))
      sizing.Swp_core.Buffer_layout.per_edge
  in
  let io_ty pick = function
    | None -> Streamit.Types.TFloat
    | Some v -> pick (filter_of_node (Graph.node g v))
  in
  {
    Ir.header;
    style = style_of c;
    grid = sched.Swp_core.Swp_schedule.num_sms;
    block = cfg.Swp_core.Select.block_threads;
    stages;
    ring = stages + 1;
    iterations = 1024;
    regions;
    work_fns;
    buffers;
    cases = List.rev !cases;
    allocs;
    io_in_ty = io_ty (fun f -> f.Kernel.in_ty) g.Graph.entry;
    io_out_ty = io_ty (fun f -> f.Kernel.out_ty) g.Graph.exit_;
  }
