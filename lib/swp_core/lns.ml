open Numeric

(* Large-neighborhood refinement of a feasible schedule: freeze the
   winning schedule's SM assignment, pick a target II below the achieved
   one, and repair the assignment so every SM load fits the target —
   greedy relocations and swaps off overloaded SMs first, then (for
   small windows) an exact re-pack ILP of the instances on the still-
   overloaded SMs — and finally re-run the phase-2 longest-path
   placement at the target.  Each probe is deterministic (fixed
   iteration orders, work-unit budgets only) and the driver commits
   probes serially in target order, so refinement preserves the
   byte-identical determinism of the surrounding search. *)

type probe = {
  target : int;
  feasible : bool;
  moved : int;
  exact_window : bool;
  lp_pivots : int;
  bb_nodes : int;
  work_units : int;
  time_s : float;
}

let m_probes = Obs.Metrics.counter "lns.probes"
let m_window_solves = Obs.Metrics.counter "lns.window_solves"

(* Exact-rational pivot cost grows with the magnitude of the capacity
   coefficients (the target II), not just the tableau size, so the
   window ILP is gated on the target too — past this, work-unit caps no
   longer translate into bounded wall time per pivot. *)
let exact_max_target = 512

(* Each exact window re-pack runs under a node cap and a work-unit cap,
   and windows past [max_window_vars] assignment variables skip the
   exact step entirely. *)
let window_nodes = 600
let window_work = 1500
let max_window_vars = 96

(* Greedy repair: relocations first (worst-fit destination — the least
   loaded SM that fits, so future moves keep room), then swaps of a big
   instance on an overloaded SM against a smaller one elsewhere.  Every
   move strictly decreases the total overload, so the loop terminates.
   All scan orders are fixed (SM index ascending, instances by
   decreasing delay with index tie-break) for determinism. *)
let repair ~n ~delays ~num_sms ~target sm_of =
  let load = Array.make num_sms 0 in
  for i = 0 to n - 1 do
    load.(sm_of.(i)) <- load.(sm_of.(i)) + delays.(i)
  done;
  let moved = ref 0 in
  let own_desc p =
    List.stable_sort
      (fun a b ->
        match compare delays.(b) delays.(a) with
        | 0 -> compare a b
        | c -> c)
      (List.filter (fun i -> sm_of.(i) = p) (List.init n Fun.id))
  in
  let progress = ref true in
  while !progress && Array.exists (fun l -> l > target) load do
    progress := false;
    for p = 0 to num_sms - 1 do
      if load.(p) > target then
        List.iter
          (fun i ->
            if load.(p) > target then begin
              let dest = ref (-1) in
              for q = 0 to num_sms - 1 do
                if
                  q <> p
                  && load.(q) + delays.(i) <= target
                  && (!dest < 0 || load.(q) < load.(!dest))
                then dest := q
              done;
              if !dest >= 0 then begin
                sm_of.(i) <- !dest;
                load.(p) <- load.(p) - delays.(i);
                load.(!dest) <- load.(!dest) + delays.(i);
                incr moved;
                progress := true
              end
            end)
          (own_desc p)
    done;
    if not !progress then
      (* relocation is stuck: try pairwise swaps *)
      for p = 0 to num_sms - 1 do
        if load.(p) > target then
          List.iter
            (fun a ->
              if load.(p) > target then begin
                let found = ref None in
                (try
                   for q = 0 to num_sms - 1 do
                     if q <> p then
                       for b = 0 to n - 1 do
                         if
                           sm_of.(b) = q
                           && delays.(b) < delays.(a)
                           && load.(p) - delays.(a) + delays.(b) <= target
                           && load.(q) - delays.(b) + delays.(a) <= target
                         then begin
                           found := Some (q, b);
                           raise Exit
                         end
                       done
                   done
                 with Exit -> ());
                match !found with
                | Some (q, b) ->
                  sm_of.(a) <- q;
                  sm_of.(b) <- p;
                  load.(p) <- load.(p) - delays.(a) + delays.(b);
                  load.(q) <- load.(q) - delays.(b) + delays.(a);
                  incr moved;
                  progress := true
                | None -> ()
              end)
            (own_desc p)
      done
  done;
  (load, !moved)

(* Exact window re-pack: a small bin-packing ILP over the instances of
   the still-overloaded SMs, with the other SMs' loads frozen as reduced
   capacities.  Screened by the phase-1 LP feasibility oracle first so
   provably hopeless windows never reach branch-and-bound. *)
let exact_repack ~delays ~window ~caps tok_pivots tok_nodes =
  let num_sms = Array.length caps in
  let p = Lp.Problem.create () in
  let var = Hashtbl.create 64 in
  List.iter
    (fun i ->
      for sm = 0 to num_sms - 1 do
        Hashtbl.replace var (i, sm)
          (Lp.Problem.add_var p ~kind:Lp.Problem.Binary
             (Printf.sprintf "y_%d_%d" i sm))
      done)
    window;
  List.iter
    (fun i ->
      Lp.Problem.add_constraint p
        ~name:(Printf.sprintf "assign_%d" i)
        (Lp.Linexpr.of_terms
           (List.init num_sms (fun sm -> (Rat.one, Hashtbl.find var (i, sm)))))
        Lp.Problem.Eq
        (Lp.Linexpr.of_int 1))
    window;
  Array.iteri
    (fun sm cap ->
      Lp.Problem.add_constraint p
        ~name:(Printf.sprintf "cap_%d" sm)
        (Lp.Linexpr.of_terms
           (List.map
              (fun i -> (Rat.of_int delays.(i), Hashtbl.find var (i, sm)))
              window))
        Lp.Problem.Le (Lp.Linexpr.of_int cap))
    caps;
  let tok = Resil.Budget.create ~label:"lns.window" ~work:window_work () in
  let nv = Lp.Problem.num_vars p in
  let lb = Array.init nv (Lp.Problem.var_lb p)
  and ub = Array.init nv (Lp.Problem.var_ub p) in
  let lp_stats = ref Lp.Solution.empty_lp_stats in
  let screen = Lp.Simplex.feasible_with_bounds ~budget:tok ~stats:lp_stats p ~lb ~ub in
  tok_pivots := !tok_pivots + !lp_stats.Lp.Solution.pivots;
  match screen with
  | `Infeasible -> None
  | `Unknown -> None
  | `Feasible -> (
    Obs.Metrics.inc m_window_solves;
    let outcome, bb =
      Lp.Branch_bound.solve ~node_budget:window_nodes ~budget:tok p
    in
    tok_pivots := !tok_pivots + bb.Lp.Branch_bound.lp_pivots;
    tok_nodes := !tok_nodes + bb.Lp.Branch_bound.nodes_explored;
    match outcome with
    | Lp.Solution.Optimal sol ->
      Some
        (List.map
           (fun i ->
             let sm = ref (-1) in
             for q = 0 to num_sms - 1 do
               if Lp.Solution.value_int sol (Hashtbl.find var (i, q)) = 1 then
                 sm := q
             done;
             (i, !sm))
           window)
    | _ -> None)

let refine ?(rounds = 12) ~ledger_ok ~commit ~insts ~deps g cfg ~num_sms ~lb
    (s0 : Swp_schedule.t) =
  let insts = Array.of_list insts in
  let n = Array.length insts in
  if n = 0 || s0.Swp_schedule.ii <= lb then s0
  else begin
    let itbl = Hashtbl.create (2 * n) in
    Array.iteri (fun i inst -> Hashtbl.replace itbl inst i) insts;
    let idx i = match Hashtbl.find_opt itbl i with Some x -> x | None -> -1 in
    let delays =
      Array.map
        (fun (i : Instances.instance) -> cfg.Select.delay.(i.node))
        insts
    in
    let sm_of_schedule (s : Swp_schedule.t) =
      let a = Array.make n 0 in
      List.iter
        (fun (e : Swp_schedule.entry) ->
          let i = idx e.inst in
          if i >= 0 then a.(i) <- e.sm)
        s.Swp_schedule.entries;
      a
    in
    let best = ref s0 in
    let probe_at target =
      let t0 = Resil.Clock.now () in
      Obs.Metrics.inc m_probes;
      let sm_of = sm_of_schedule !best in
      let load, moved = repair ~n ~delays ~num_sms ~target sm_of in
      let pivots = ref 0 and nodes = ref 0 in
      let used_window = ref false in
      let still_over = Array.exists (fun l -> l > target) load in
      let assignment_ok =
        if not still_over then true
        else begin
          let window =
            List.filter (fun i -> load.(sm_of.(i)) > target) (List.init n Fun.id)
          in
          if
            List.length window * num_sms > max_window_vars
            || target > exact_max_target
          then false
          else begin
            used_window := true;
            let in_window = Array.make n false in
            List.iter (fun i -> in_window.(i) <- true) window;
            let caps = Array.make num_sms target in
            for i = 0 to n - 1 do
              if not in_window.(i) then
                caps.(sm_of.(i)) <- caps.(sm_of.(i)) - delays.(i)
            done;
            match exact_repack ~delays ~window ~caps pivots nodes with
            | None -> false
            | Some assign ->
              List.iter (fun (i, sm) -> if sm >= 0 then sm_of.(i) <- sm) assign;
              true
          end
        end
      in
      let sched =
        if not assignment_ok then None
        else
          match
            Heuristic.place ~insts ~deps ~idx g cfg ~num_sms ~ii:target ~sm_of
          with
          | `Schedule s -> Some s
          | `Infeasible -> None
      in
      let probe =
        {
          target;
          feasible = sched <> None;
          moved;
          exact_window = !used_window;
          lp_pivots = !pivots;
          bb_nodes = !nodes;
          work_units = 1 + !pivots + !nodes;
          time_s = Resil.Clock.now () -. t0;
        }
      in
      (sched, probe)
    in
    (* Bisection between the lower bound and the achieved II, always
       repairing from the best schedule found so far; leftover rounds
       walk the frontier down one cycle at a time. *)
    let lo = ref (lb - 1) and r = ref rounds in
    while
      !r > 0
      && !best.Swp_schedule.ii - !lo > 1
      && ledger_ok ()
    do
      let hi = !best.Swp_schedule.ii in
      let mid = (!lo + hi) / 2 in
      let sched, probe = probe_at mid in
      commit probe;
      (match sched with Some s -> best := s | None -> lo := mid);
      decr r
    done;
    !best
  end
