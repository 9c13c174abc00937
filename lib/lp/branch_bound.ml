open Numeric

type stats = {
  nodes_explored : int;
  nodes_pruned : int;
  max_depth : int;
  lp_pivots : int;
  seeded : bool;
}

let m_solves = Obs.Metrics.counter "lp.bb.solves"
let m_nodes = Obs.Metrics.counter "lp.bb.nodes"
let m_pruned = Obs.Metrics.counter "lp.bb.pruned"
let m_incumbents = Obs.Metrics.counter "lp.bb.incumbents"
let m_seeded = Obs.Metrics.counter "lp.bb.warm_start_hits"
let h_depth = Obs.Metrics.histogram "lp.bb.max_depth"

(* A branching decision narrows one variable's bounds. *)
type node = { lb : Rat.t option array; ub : Rat.t option array; depth : int }

let most_fractional_var int_vars (sol : Solution.t) =
  let best = ref None in
  List.iter
    (fun v ->
      let x = sol.values.(v) in
      if not (Rat.is_integer x) then begin
        (* distance to nearest integer = min(frac, 1-frac) *)
        let fl = Rat.of_bigint (Rat.floor x) in
        let frac = Rat.sub x fl in
        let dist = Rat.min frac (Rat.sub Rat.one frac) in
        match !best with
        | Some (_, d) when Rat.ge dist d |> not -> ()
        | _ -> best := Some ((v, x), dist)
      end)
    int_vars;
  Option.map fst !best

let solve ?(node_budget = 10_000) ?budget ?incumbent
    ?(use_reference_lp = false) problem =
  let dir, obj = Problem.objective problem in
  (* A feasibility query (constant objective) stops at the first
     integral solution. *)
  let feasibility_only = Linexpr.is_constant obj in
  let int_vars = Problem.integer_vars problem in
  let n = Problem.num_vars problem in
  let root =
    {
      lb = Array.init n (Problem.var_lb problem);
      ub = Array.init n (Problem.var_ub problem);
      depth = 0;
    }
  in
  let lp_stats = ref Solution.empty_lp_stats in
  (* Warm start: a caller-provided feasible assignment (e.g. the heuristic
     modulo scheduler's solution) becomes the initial incumbent, so the
     search prunes against it instead of exploring — and for the paper's
     pure-feasibility ILPs it already answers the query. *)
  let seeded = ref false in
  let incumbent =
    ref
      (match incumbent with
      | None -> None
      | Some assign -> (
        match Problem.check_assignment problem assign with
        | Error _ -> None (* silently ignore an invalid seed *)
        | Ok () ->
          seeded := true;
          Some
            {
              Solution.values = Array.init n assign;
              objective = Linexpr.eval assign obj;
              lp = Solution.empty_lp_stats;
            }))
  in
  let lp_budget_hit = ref false in
  let explored = ref 0 and pruned = ref 0 and maxdepth = ref 0 in
  let better (s : Solution.t) =
    match !incumbent with
    | None -> true
    | Some (i : Solution.t) -> (
      match dir with
      | `Minimize -> Rat.lt s.objective i.objective
      | `Maximize -> Rat.gt s.objective i.objective)
  in
  (* LP bound cannot beat the incumbent => prune. *)
  let bound_dominated (s : Solution.t) =
    match !incumbent with
    | None -> false
    | Some (i : Solution.t) -> (
      match dir with
      | `Minimize -> Rat.ge s.objective i.objective
      | `Maximize -> Rat.le s.objective i.objective)
  in
  let exception Done in
  let exception Budget in
  let stack = ref [ root ] in
  (try
     (* A seeded feasibility search is already answered by its incumbent. *)
     if feasibility_only && !incumbent <> None then raise Done;
     while !stack <> [] do
       match !stack with
       | [] -> ()
       | node :: rest ->
         stack := rest;
         if !explored >= node_budget then raise Budget;
         (* Cooperative budget check: one work unit per node, and the
            token's own limits (work and, if armed, wall clock). *)
         (match budget with
         | Some b ->
           if Resil.Budget.over b then raise Budget
           else Resil.Budget.charge b 1
         | None -> ());
         incr explored;
         if node.depth > !maxdepth then maxdepth := node.depth;
         let relaxation =
           if use_reference_lp then
             Simplex.solve_with_bounds_reference ?budget ~stats:lp_stats
               problem ~lb:node.lb ~ub:node.ub
           else
             Simplex.solve_with_bounds ?budget ~stats:lp_stats problem
               ~lb:node.lb ~ub:node.ub
         in
         (match relaxation with
         | Solution.Budget_exhausted _ ->
           (* the relaxation hit its pivot cap: we can conclude nothing
              about this subtree — drop it and report budget exhaustion *)
           incr pruned;
           lp_budget_hit := true
         | Solution.Infeasible -> incr pruned
         | Solution.Unbounded ->
           (* With an integral-feasible region contained in the LP region,
              an unbounded relaxation at the root means the MILP itself is
              unbounded only when an integral ray exists; we report it
              conservatively. *)
           if node.depth = 0 && not feasibility_only then begin
             incumbent := None;
             raise Done
           end
         | Solution.Optimal sol ->
           if bound_dominated sol then incr pruned
           else begin
             match most_fractional_var int_vars sol with
             | None ->
               (* Integral solution. *)
               if better sol then begin
                 incumbent := Some sol;
                 Obs.Metrics.inc m_incumbents
               end;
               if feasibility_only then raise Done
             | Some (v, x) ->
               let fl = Rat.of_bigint (Rat.floor x) in
               let ce = Rat.add fl Rat.one in
               let down =
                 let ub = Array.copy node.ub in
                 ub.(v) <-
                   Some
                     (match ub.(v) with
                     | Some u -> Rat.min u fl
                     | None -> fl);
                 { lb = node.lb; ub; depth = node.depth + 1 }
               in
               let up =
                 let lb = Array.copy node.lb in
                 lb.(v) <-
                   Some
                     (match lb.(v) with
                     | Some l -> Rat.max l ce
                     | None -> ce);
                 { lb; ub = node.ub; depth = node.depth + 1 }
               in
               (* DFS, exploring the "down" branch first: schedule
                  variables toward their lower bound, which for the w/g
                  binaries of the paper's ILP means trying the cheaper
                  assignment first. *)
               stack := down :: up :: !stack
           end)
     done
   with
  | Done -> ()
  | Budget ->
    ());
  let stats =
    {
      nodes_explored = !explored;
      nodes_pruned = !pruned;
      max_depth = !maxdepth;
      lp_pivots = !lp_stats.Solution.pivots;
      seeded = !seeded;
    }
  in
  Obs.Metrics.inc m_solves;
  Obs.Metrics.add m_nodes !explored;
  Obs.Metrics.add m_pruned !pruned;
  if !seeded then Obs.Metrics.inc m_seeded;
  Obs.Metrics.observe h_depth (float_of_int !maxdepth);
  let budget_hit =
    !explored >= node_budget || !lp_budget_hit
    || (match budget with Some b -> Resil.Budget.over b | None -> false)
  in
  match !incumbent with
  | Some sol ->
    (* Self-check before handing the solution out. *)
    (match Problem.check_assignment problem (fun v -> sol.values.(v)) with
    | Ok () -> ()
    | Error m -> failwith ("Branch_bound: invalid solution produced: " ^ m));
    if budget_hit && not feasibility_only then
      (Solution.Budget_exhausted (Some sol), stats)
    else (Solution.Optimal sol, stats)
  | None ->
    if budget_hit then (Solution.Budget_exhausted None, stats)
    else (Solution.Infeasible, stats)
