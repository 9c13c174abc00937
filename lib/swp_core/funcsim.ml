open Streamit
open Types

exception Uninitialized_read of string

(* Physical storage for one channel: a ring of [regions] steady-state
   regions, each laid out per the producer's shuffled pattern. *)
type chan = {
  edge : Graph.edge;
  prod_rate : int;     (* tokens per thread-firing of the producer *)
  prod_threads : int;
  region_tokens : int; (* O' x reps(src) = one steady state *)
  inst_tokens : int;   (* O' = prod_rate x prod_threads *)
  init : value array;
  regions : int;
  buf : value option array;
}

let addr_of_produced ch s =
  let iter = s / ch.region_tokens in
  let within = s mod ch.region_tokens in
  let inst = within / ch.inst_tokens in
  let off = within mod ch.inst_tokens in
  ((iter mod ch.regions) * ch.region_tokens)
  + (inst * ch.inst_tokens)
  + Buffer_layout.addr_of_token ~push_rate:ch.prod_rate
      ~threads:ch.prod_threads off

let write_chan ch s v = ch.buf.(addr_of_produced ch s) <- Some v

(* [c] is in *consumed* stream coordinates: initial tokens first, then the
   produced stream. *)
let read_chan ch c =
  if c < Array.length ch.init then ch.init.(c)
  else begin
    let s = c - Array.length ch.init in
    match ch.buf.(addr_of_produced ch s) with
    | Some v -> v
    | None ->
      raise
        (Uninitialized_read
           (Printf.sprintf "edge %d.%d -> %d.%d token %d" ch.edge.Graph.src
              ch.edge.Graph.src_port ch.edge.Graph.dst ch.edge.Graph.dst_port s))
  end

let run (c : Compile.compiled) ~input ~iters =
  let g = c.Compile.graph in
  let cfg = c.Compile.config in
  let sched = c.Compile.schedule in
  let stages = Swp_schedule.stages sched in
  let regions = stages + 2 in
  let chans =
    List.map
      (fun (e : Graph.edge) ->
        let prod_rate = Graph.production g e in
        let prod_threads = cfg.Select.threads.(e.Graph.src) in
        let inst_tokens = prod_rate * prod_threads in
        let region_tokens = inst_tokens * cfg.Select.reps.(e.Graph.src) in
        ( e,
          {
            edge = e;
            prod_rate;
            prod_threads;
            region_tokens;
            inst_tokens;
            init = Array.of_list e.Graph.init_values;
            regions;
            buf = Array.make (regions * region_tokens) None;
          } ))
      g.Graph.edges
  in
  let in_chan v port =
    List.find_map
      (fun ((e : Graph.edge), ch) ->
        if e.Graph.dst = v && e.Graph.dst_port = port then Some ch else None)
      chans
  in
  let out_chan v port =
    List.find_map
      (fun ((e : Graph.edge), ch) ->
        if e.Graph.src = v && e.Graph.src_port = port then Some ch else None)
      chans
  in
  (* output tape of the exit node, indexed in FIFO order *)
  let out_tokens_per_iter =
    match g.Graph.exit_ with
    | None -> 0
    | Some v ->
      Graph.push_rate_of (Graph.node g v)
      * cfg.Select.threads.(v) * cfg.Select.reps.(v)
  in
  let out_tape = Array.make (max 1 (out_tokens_per_iter * iters)) None in
  (* persistent state of stateful filters, one copy per node *)
  let node_state = Hashtbl.create 8 in
  Array.iter
    (fun (nd : Graph.node) ->
      match nd.Graph.kind with
      | Graph.NFilter f when Kernel.is_stateful f ->
        Hashtbl.replace node_state nd.Graph.id
          (List.map (fun (n, a) -> (n, Array.copy a)) f.Kernel.state)
      | _ -> ())
    g.Graph.nodes;
  (* Execute one thread-firing of instance (v, k) in iteration j. *)
  let fire_thread v k j tid =
    let node = Graph.node g v in
    let threads = cfg.Select.threads.(v) in
    let is_entry = g.Graph.entry = Some v in
    let is_exit = g.Graph.exit_ = Some v in
    (* consumed-stream base for an input port of per-thread rate [r] *)
    let in_base r = ((j * cfg.Select.reps.(v)) + k) * (r * threads) + (tid * r) in
    let out_base r = in_base r (* same shape on the producer side *) in
    let read_port port r n =
      match in_chan v port with
      | Some ch -> read_chan ch (in_base r + n)
      | None ->
        if is_entry then input (in_base r + n)
        else failwith "Funcsim: unwired input port"
    in
    let write_port port r n value =
      match out_chan v port with
      | Some ch -> write_chan ch (out_base r + n) value
      | None ->
        if is_exit then begin
          let idx = out_base r + n in
          if idx < Array.length out_tape then out_tape.(idx) <- Some value
        end
        else failwith "Funcsim: unwired output port"
    in
    match node.Graph.kind with
    | Graph.NFilter f ->
      let pops = ref 0 in
      let pushes = ref 0 in
      let state =
        match Hashtbl.find_opt node_state v with Some s -> s | None -> []
      in
      Interp.exec_filter_firing ~state f
        ~pop:(fun () ->
          let v = read_port 0 f.Kernel.pop_rate !pops in
          incr pops;
          v)
        ~peek:(fun d -> read_port 0 f.Kernel.pop_rate (!pops + d))
        ~push:(fun v ->
          write_port 0 f.Kernel.push_rate !pushes v;
          incr pushes)
    | Graph.NSplitter (Ast.Duplicate, branches) ->
      let v0 = read_port 0 1 0 in
      for p = 0 to branches - 1 do
        write_port p 1 0 v0
      done
    | Graph.NSplitter (Ast.Round_robin ws, _) ->
      let sum = List.fold_left ( + ) 0 ws in
      let consumed = ref 0 in
      List.iteri
        (fun p w ->
          for n = 0 to w - 1 do
            write_port p w n (read_port 0 sum !consumed);
            incr consumed
          done)
        ws
    | Graph.NJoiner ws ->
      let sum = List.fold_left ( + ) 0 ws in
      let produced = ref 0 in
      List.iteri
        (fun p w ->
          for n = 0 to w - 1 do
            write_port 0 sum !produced (read_port p w n);
            incr produced
          done)
        ws
  in
  (* Entries in start-time order within a kernel iteration. *)
  let ordered =
    List.sort
      (fun (a : Swp_schedule.entry) b -> compare (a.o, a.f) (b.o, b.f))
      sched.Swp_schedule.entries
  in
  (* Kernel iteration w runs stage f's instances on steady state w - f,
     exactly as the staging predicates of the generated kernel do. *)
  for w = 0 to iters + stages - 1 do
    List.iter
      (fun (e : Swp_schedule.entry) ->
        let j = w - e.f in
        if j >= 0 && j < iters then
          for tid = 0 to cfg.Select.threads.(e.inst.Instances.node) - 1 do
            fire_thread e.inst.Instances.node e.inst.Instances.k j tid
          done)
      ordered
  done;
  if out_tokens_per_iter = 0 then []
  else
    List.init (out_tokens_per_iter * iters) (fun i ->
        match out_tape.(i) with
        | Some v -> v
        | None ->
          raise
            (Uninitialized_read (Printf.sprintf "output token %d never written" i)))

let matches_interpreter c ~input ~iters =
  try
    let dev = run c ~input ~iters in
    let scale = c.Compile.config.Select.scale in
    let reference =
      Interp.run_steady_states c.Compile.graph ~input ~iters:(iters * scale)
    in
    if List.length dev <> List.length reference then
      Error
        (Printf.sprintf "length mismatch: device %d vs interpreter %d"
           (List.length dev) (List.length reference))
    else
      (* walk both lists together: the first mismatch ends the scan *)
      let rec first_mismatch i dev reference =
        match (dev, reference) with
        | d :: dev, r :: reference ->
          if value_close ~eps:1e-4 d r then first_mismatch (i + 1) dev reference
          else
            Error
              (Printf.sprintf "token %d: device %s vs interpreter %s" i
                 (string_of_value d) (string_of_value r))
        | _ -> Ok ()
      in
      first_mismatch 0 dev reference
  with Uninitialized_read m -> Error ("uninitialized read: " ^ m)
