(* Per-candidate-II portfolio: the heuristic packing strategies and the
   (gated) exact ILP raced as budgeted arms.  The racing order is fixed
   — ffd, bfd, bal, then exact — and the first feasible arm wins, so
   the outcome is a pure function of the candidate II (and, for the
   exact arm, of where the attempt's token cuts it): speculative
   parallel probing commits exactly what the serial race would have. *)

type outcome = {
  schedule : Swp_schedule.t option;
  arm : string;
  arms_run : int;
  bb : Lp.Branch_bound.stats option;
}

let arm_names = [ "ffd"; "bfd"; "bal"; "exact"; "lns" ]

let won =
  List.map
    (fun a -> (a, Obs.Metrics.counter ~labels:[ ("arm", a) ] "portfolio.arm_won"))
    arm_names

let m_lost = Obs.Metrics.counter "portfolio.no_arm_won"
let m_lns_improved = Obs.Metrics.counter "portfolio.lns_improved"
let h_lns_pct = Obs.Metrics.histogram "portfolio.lns_improvement_pct"

(* Called at *commit* time only (ii_search's commit point), never from a
   speculative probe, so metrics reflect the committed search. *)
let record_arm arm ~feasible =
  if feasible then
    match List.assoc_opt arm won with
    | Some c -> Obs.Metrics.inc c
    | None -> ()
  else if arm = "none" then Obs.Metrics.inc m_lost

let record_lns ~from_ii ~to_ii =
  Obs.Metrics.inc m_lns_improved;
  (match List.assoc_opt "lns" won with
  | Some c -> Obs.Metrics.inc c
  | None -> ());
  Obs.Metrics.observe h_lns_pct
    (100.0
    *. float_of_int (from_ii - to_ii)
    /. float_of_int (max 1 from_ii))

let try_ii ?budget ?(allow_exact = false) ?(node_budget = 2000) ~insts ~deps g
    cfg ~num_sms ~ii =
  let rec heur n = function
    | [] -> (None, n)
    | s :: tl -> (
      match Heuristic.solve ~strategy:s ~insts ~deps g cfg ~num_sms ~ii with
      | `Schedule sched -> (Some (sched, Heuristic.strategy_name s), n + 1)
      | `Infeasible -> heur (n + 1) tl)
  in
  match heur 0 Heuristic.all_strategies with
  | Some (s, arm), arms_run ->
    { schedule = Some s; arm; arms_run; bb = None }
  | None, arms_run when not allow_exact ->
    { schedule = None; arm = "none"; arms_run; bb = None }
  | None, arms_run ->
    let bb = ref None in
    let schedule =
      match
        Ilp.solve ~node_budget ?budget ~insts ~deps ~stats:bb ~cuts:true g cfg
          ~num_sms ~ii
      with
      | `Schedule s -> Some s
      | `Infeasible | `Budget_exhausted -> None
    in
    {
      schedule;
      arm = (if schedule <> None then "exact" else "none");
      arms_run = arms_run + 1;
      bb = !bb;
    }
