open Gpusim

type gpu_time = {
  ii_cycles : int;
  sm_cycles : int array;
  bus_cycles : int;
  kernel_cycles : int;
  cycles_per_steady : float;
}

let cdiv a b = (a + b - 1) / b

let g_ii_cycles = Obs.Metrics.gauge "executor.ii_cycles"
let g_bus_cycles = Obs.Metrics.gauge "executor.bus_cycles"
let g_busiest_sm = Obs.Metrics.gauge "executor.busiest_sm_cycles"

let time_swp (c : Compile.compiled) =
  Obs.Trace.with_span "execute" @@ fun () ->
  let arch = c.arch in
  let sched = c.schedule in
  let cfg = c.config in
  let num_sms = sched.Swp_schedule.num_sms in
  let sm_cycles = Array.make num_sms 0 in
  let bus_bytes = ref 0 in
  (* A pass depends only on the node, its thread count, the register
     cap, its layout and its in-edge rates, so every instance of a node
     shares one; price each node once per call. *)
  let passes = Array.make (Streamit.Graph.num_nodes c.graph) None in
  let pass_of v =
    match passes.(v) with
    | Some pass -> pass
    | None ->
      let node = Streamit.Graph.node c.graph v in
      let layout = Compile.layout_of_node c node in
      (* actual execution pays for rate-mismatched edges the profile is
         blind to (the layout coalesces the producer side; mismatched
         consumers read strided) *)
      let in_rates = Timing.in_edge_rates c.graph v in
      let pass =
        match
          Timing.pass_of_node ~in_rates arch node
            ~threads:cfg.Select.threads.(v) ~regs_cap:cfg.Select.regs ~layout
        with
        | Some pass -> pass
        | None ->
          (* the configuration was selected as feasible; cannot happen *)
          assert false
      in
      passes.(v) <- Some pass;
      pass
  in
  List.iter
    (fun (e : Swp_schedule.entry) ->
      let pass = pass_of e.inst.Instances.node in
      (* An instance cannot retire before its own bus transfers are
         served, so its SM's busy time includes them; because the
         profile underestimates scatter-heavy splitter/joiner
         instances, LPT packs several onto one SM and that SM's busy
         time then exceeds the scheduled II — the imbalance the paper
         reports for DCT and MatrixMult. *)
      let own_bus =
        cdiv pass.Timing.bus_bytes arch.Arch.dram_bytes_per_cycle
      in
      let busy =
        max (max pass.Timing.compute_cycles pass.Timing.latency_cycles)
          own_bus
        + 20
      in
      sm_cycles.(e.sm) <- sm_cycles.(e.sm) + busy;
      bus_bytes := !bus_bytes + pass.Timing.bus_bytes)
    sched.Swp_schedule.entries;
  let bus_cycles = cdiv !bus_bytes arch.Arch.dram_bytes_per_cycle in
  let busiest = Array.fold_left max 0 sm_cycles in
  let n = c.coarsening in
  (* Coarsening iterates every instance n times inside one II, which
     averages out the memory-arbitration jitter the paper describes
     (Sec. V-B): the makespan excess over the scheduled II shrinks with
     sqrt(n). *)
  let jitter = 1.0 +. (0.35 /. sqrt (float_of_int n)) in
  (* jitter stretches the makespan of the per-SM schedules; the
     aggregate bus bound is a throughput limit and does not jitter *)
  let ii_cycles =
    max (int_of_float (float_of_int busiest *. jitter)) bus_cycles
    + arch.Arch.sync_cycles
  in
  (* The staging predicates live in device memory (Sec. IV-C), so the
     software pipeline persists across kernel launches — a launch costs
     only its dispatch overhead, amortized over the iterations one
     kernel's buffers cover. *)
  let iters_per_kernel = 8 in
  let kernel_cycles =
    arch.Arch.kernel_launch_cycles + (iters_per_kernel * n * ii_cycles)
  in
  let cycles_per_macro_ss =
    float_of_int kernel_cycles /. float_of_int (iters_per_kernel * n)
  in
  let cycles_per_steady =
    cycles_per_macro_ss /. float_of_int cfg.Select.scale
  in
  Obs.Metrics.set g_ii_cycles (float_of_int ii_cycles);
  Obs.Metrics.set g_bus_cycles (float_of_int bus_cycles);
  Obs.Metrics.set g_busiest_sm (float_of_int busiest);
  Obs.Trace.add_attr "ii_cycles" (Obs.Trace.Int ii_cycles);
  Obs.Trace.add_attr "bus_cycles" (Obs.Trace.Int bus_cycles);
  Obs.Trace.add_attr "kernel_cycles" (Obs.Trace.Int kernel_cycles);
  { ii_cycles; sm_cycles; bus_cycles; kernel_cycles; cycles_per_steady }

type serial_time = {
  batch : int;
  launches : int;
  total_cycles : float;
  cycles_per_steady : float;
  buffer_bytes : int;
}

let time_serial ?(arch = Arch.geforce_8800_gts_512) ?batch graph ~budget_bytes
    =
  match Streamit.Sdf.steady_state graph with
  | Error m -> Error m
  | Ok rates ->
    let n = Streamit.Graph.num_nodes graph in
    (* SAS buffering: every edge holds its full per-batch production.
       The batch is the number of steady states resident on the device at
       once — the paper matches it to the SWP8 kernel's working set and
       additionally caps it by the SWP8 buffer budget. *)
    let bytes_per_ss =
      List.fold_left
        (fun acc (_, tokens) -> acc + (tokens * Streamit.Types.elem_size_bytes))
        0 rates.Streamit.Sdf.edge_tokens
    in
    let by_budget = max 1 (budget_bytes / max 1 bytes_per_ss) in
    let batch =
      match batch with Some b -> max 1 (min b by_budget) | None -> by_budget
    in
    let order = Streamit.Graph.topo_order graph in
    let total = ref 0.0 in
    let buffer_bytes = bytes_per_ss * batch in
    let feasible = ref (Ok ()) in
    List.iter
      (fun v ->
        let node = Streamit.Graph.node graph v in
        let firings = rates.Streamit.Sdf.reps.(v) * batch in
        (* 16 blocks; threads per block sized to the available data
           parallelism, in whole warps, within the block limit *)
        let threads =
          let want = cdiv firings arch.Arch.num_sms in
          let rounded = cdiv want arch.Arch.warp_size * arch.Arch.warp_size in
          max arch.Arch.warp_size (min arch.Arch.max_threads_per_block rounded)
        in
        (* the serial scheme is compiled without a register cap squeeze:
           use the smallest standard cap that avoids spilling *)
        let regs_cap =
          match node.Streamit.Graph.kind with
          | Streamit.Graph.NFilter f ->
            let d = Streamit.Kernel.estimate_registers f in
            let cap = List.find_opt (fun c -> c >= d) [ 16; 20; 32; 64 ] in
            Option.value cap ~default:64
          | _ -> 16
        in
        let regs_cap =
          (* still subject to launch feasibility *)
          if Arch.config_feasible arch ~regs_per_thread:regs_cap ~threads then
            regs_cap
          else 16
        in
        (* With the whole batch materialised before each phase, a serial
           kernel is free to choose its thread-to-firing assignment per
           launch and read in producer order — it does not pay the
           cross-pattern scatter the pipelined kernel is locked into. *)
        match
          Timing.pass_of_node arch node ~threads ~regs_cap
            ~layout:Timing.Shuffled
        with
        | None -> feasible := Error (Streamit.Graph.name graph v ^ ": infeasible launch")
        | Some pass ->
          let waves = cdiv firings (threads * arch.Arch.num_sms) in
          (* all SMs execute the same filter concurrently: the bus is
             shared by num_sms instances of this pass *)
          let wave_cycles =
            max
              (max pass.Timing.compute_cycles pass.Timing.latency_cycles)
              (cdiv
                 (pass.Timing.bus_bytes * arch.Arch.num_sms)
                 arch.Arch.dram_bytes_per_cycle)
            + 20
          in
          total :=
            !total
            +. float_of_int
                 (arch.Arch.kernel_launch_cycles + (waves * wave_cycles)))
      order;
    (match !feasible with
    | Error m -> Error m
    | Ok () ->
      ignore n;
      Ok
        {
          batch;
          launches = List.length order;
          total_cycles = !total;
          cycles_per_steady = !total /. float_of_int batch;
          buffer_bytes;
        })

let cpu_cycles_per_steady ?(model = Cpu_model.xeon_2_83ghz) graph =
  match Streamit.Sdf.steady_state graph with
  | Error m -> Error m
  | Ok rates -> Ok (Cpu_model.steady_state_cycles model graph rates)

let speedup ?(model = Cpu_model.xeon_2_83ghz) ~arch ~graph
    ~gpu_cycles_per_steady () =
  match cpu_cycles_per_steady ~model graph with
  | Error m -> Error m
  | Ok cpu_cycles ->
    let t_host = Cpu_model.seconds model cpu_cycles in
    let t_gpu = gpu_cycles_per_steady /. (arch.Arch.core_clock_ghz *. 1e9) in
    Ok (t_host /. t_gpu)
