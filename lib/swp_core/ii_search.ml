type solver = Exact of int | Heuristic

type budget = {
  exact_time_s : float option;
  auto_time_s : float option;
  total_work : int option;
  wall_clock_s : float option;
}

let default_budget =
  {
    exact_time_s = Some 20.0;
    auto_time_s = None;
    total_work = None;
    wall_clock_s = None;
  }

type attempt = {
  ii : int;
  arm : string;
  tried_exact : bool;
  feasible : bool;
  solve_time_s : float;
  lp_pivots : int;
  bb_nodes : int;
  work_units : int;
  budget_hit : bool;
}

type stats = {
  lower_bound : int;
  bounds : Mii.bounds;
  achieved_ii : int;
  attempts : int;
  relaxation : float;
  used_exact : bool;
  refined : bool;
  attempt_log : attempt list;
}

type reason = [ `Unschedulable | `Budget | `Deadline | `Range ]

type error = {
  message : string;
  reason : reason;
  lower_bound : int;
  bounds : Mii.bounds option;
  attempt_log : attempt list;
}

let pp_reason fmt (r : reason) =
  Format.pp_print_string fmt
    (match r with
    | `Unschedulable -> "unschedulable"
    | `Budget -> "budget"
    | `Deadline -> "deadline"
    | `Range -> "range")

let pp_attempt fmt (a : attempt) =
  Format.fprintf fmt "II=%-6d %-6s %-10s %10.6fs %8d pivots %6d nodes%s" a.ii
    a.arm
    (if a.feasible then "feasible" else "infeasible")
    a.solve_time_s a.lp_pivots a.bb_nodes
    (if a.budget_hit then "  [budget hit]" else "")

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "II=%d (bound %d, %.1f%% relaxation, %d attempts, %s solver)"
    s.achieved_ii s.lower_bound
    (100.0 *. s.relaxation)
    s.attempts
    (if s.refined then "lns-refined"
     else if s.used_exact then "exact"
     else "heuristic")

(* Canonical attempt-log serialization for reproducibility checks: every
   field of the committed search except wall times, which cannot be
   byte-identical across runs.  Serial and parallel searches with the
   same inputs and work-unit budgets must produce equal signatures. *)
let log_signature (s : stats) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "bound=%d binding=%s achieved=%d attempts=%d exact=%b refined=%b\n"
       s.lower_bound s.bounds.Mii.binding s.achieved_ii s.attempts s.used_exact
       s.refined);
  List.iter
    (fun a ->
      Buffer.add_string b
        (Printf.sprintf
           "ii=%d arm=%s exact=%b feasible=%b pivots=%d nodes=%d work=%d \
            hit=%b\n"
           a.ii a.arm a.tried_exact a.feasible a.lp_pivots a.bb_nodes
           a.work_units a.budget_hit))
    s.attempt_log;
  Buffer.contents b

let m_attempts = Obs.Metrics.counter "ii_search.attempts"
let m_exact = Obs.Metrics.counter "ii_search.exact_attempts"
let m_searches = Obs.Metrics.counter "ii_search.searches"
let m_failures = Obs.Metrics.counter "ii_search.failures"
let m_budget_stops = Obs.Metrics.counter "ii_search.budget_stops"
let h_attempt_s = Obs.Metrics.histogram "ii_search.attempt_seconds"
let h_relax = Obs.Metrics.histogram "ii_search.relaxation"

(* The LP/cutting-plane bound pays a few exact-rational LP solves per
   probe.  Pivot cost grows with both the tableau size (assignment
   variables = instances x SMs) and the magnitude of the candidate II
   (the rational coefficients it seeds grow with it), so the bound is
   gated on both: small problems with small IIs are exactly where the
   combinatorial bounds leave a provable gap anyway. *)
let lp_bound_max_vars = 128
let lp_bound_max_ii = 256

(* The paper's relaxation: on failure raise the II by 0.5% (at least one
   cycle), and give up beyond 5x the bound. *)
let relax_step = 0.005
let max_relax = 4.0

(* Each candidate II races the heuristic packings in a fixed order
   (ffd, bfd, bal) and the first feasible one wins.  Different packings
   fail at different IIs, so the race lowers the achieved II at
   near-zero cost, and the fixed order keeps every probe a pure function
   of its candidate II.  Returns the schedule, the winning arm (["none"]
   when every packing failed) and the number of arms raced. *)
let race ~insts ~deps g cfg ~num_sms ~ii =
  let rec go n = function
    | [] -> (None, "none", n)
    | s :: tl -> (
      match Heuristic.solve ~strategy:s ~insts ~deps g cfg ~num_sms ~ii with
      | `Schedule sched -> (Some sched, Heuristic.strategy_name s, n + 1)
      | `Infeasible -> go (n + 1) tl)
  in
  go 0 Heuristic.all_strategies

(* Arm outcomes, recorded at commit points only — never from a
   speculative probe — so they reflect the committed search. *)
let m_arm_won =
  List.map
    (fun a -> (a, Obs.Metrics.counter ~labels:[ ("arm", a) ] "portfolio.arm_won"))
    [ "ffd"; "bfd"; "bal"; "exact"; "lns" ]

let m_no_arm_won = Obs.Metrics.counter "portfolio.no_arm_won"
let m_lns_improved = Obs.Metrics.counter "portfolio.lns_improved"
let h_lns_pct = Obs.Metrics.histogram "portfolio.lns_improvement_pct"
let arm_won arm = Option.iter Obs.Metrics.inc (List.assoc_opt arm m_arm_won)

let search ?(solver = Heuristic) ?(lns_rounds = 12) ?(budget = default_budget)
    g cfg ~num_sms =
  Obs.Trace.with_span "ii_search" @@ fun () ->
  Obs.Metrics.inc m_searches;
  (* The instance/dependence expansion does not depend on the candidate II:
     derive it once and reuse it across every attempt (and the MII bound). *)
  let insts = Instances.instances cfg in
  let deps = Instances.deps g cfg in
  match
    (try
       let bounds = Mii.bounds ~deps g cfg ~num_sms in
       (* Cutting-plane refinement of the floor: deterministic, bounded
          work, each refuted candidate is an independent proof — see
          {!Mii.lp_bound}.  Gated by problem size. *)
       if
         Instances.num_instances cfg * num_sms <= lp_bound_max_vars
         && bounds.Mii.combinatorial <= lp_bound_max_ii
       then
         Ok
           (Mii.with_lp bounds
              (Mii.lp_bound ~insts ~deps g cfg ~num_sms
                 ~start:bounds.Mii.combinatorial))
       else Ok bounds
     with Mii.Unschedulable m -> Error m)
  with
  | Error m ->
    Obs.Metrics.inc m_failures;
    Obs.Log.event "ii_search.unschedulable"
      ~attrs:[ ("message", Obs.Log.Str m) ];
    Error
      {
        message = "unschedulable at any II: " ^ m;
        reason = `Unschedulable;
        lower_bound = 0;
        bounds = None;
        attempt_log = [];
      }
  | Ok bounds ->
  let lb = bounds.Mii.final in
  Obs.Trace.add_attr "lower_bound" (Obs.Trace.Int lb);
  Obs.Log.event "ii_search.bounds"
    ~attrs:
      [
        ("res_mii", Obs.Log.Int bounds.Mii.res_classic);
        ("res_mii_sharp", Obs.Log.Int bounds.Mii.res_sharp);
        ("rec_mii", Obs.Log.Int bounds.Mii.recurrence);
        ("no_wrap", Obs.Log.Int bounds.Mii.no_wrap);
        ( "lp",
          match bounds.Mii.lp with
          | Some v -> Obs.Log.Int v
          | None -> Obs.Log.Str "skipped" );
        ("final", Obs.Log.Int lb);
        ("binding", Obs.Log.Str bounds.Mii.binding);
      ];
  let log = ref [] in
  let fail ~reason message =
    Obs.Metrics.inc m_failures;
    if reason = `Budget || reason = `Deadline then
      Obs.Metrics.inc m_budget_stops;
    Obs.Log.event "ii_search.stop"
      ~attrs:
        [
          ( "reason",
            Obs.Log.Str (Format.asprintf "%a" pp_reason reason) );
          ("committed", Obs.Log.Int (List.length !log));
        ];
    Error
      {
        message;
        reason;
        lower_bound = lb;
        bounds = Some bounds;
        attempt_log = List.rev !log;
      }
  in
  (* The search-wide ledger.  It is charged only when an attempt commits
     — never from inside a speculative probe — so parallel probing
     cannot perturb where a work-unit budget cuts the search off. *)
  let ledger =
    if budget.total_work <> None || budget.wall_clock_s <> None then
      Some
        (Resil.Budget.create ~label:"ii_search" ?work:budget.total_work
           ?wall_s:budget.wall_clock_s ())
    else None
  in
  let ledger_over () =
    match ledger with
    | None -> None
    | Some b -> Resil.Budget.exhausted_reason b
  in
  let mk_attempt ~ii ~arm ~arms_run ~tried_exact ~feasible ~budget_hit ~t0 bb
      =
    let bb_nodes, lp_pivots =
      match bb with
      | Some (s : Lp.Branch_bound.stats) -> (s.nodes_explored, s.lp_pivots)
      | None -> (0, 0)
    in
    let a =
      {
        ii;
        arm;
        tried_exact;
        feasible;
        solve_time_s = Resil.Clock.now () -. t0;
        lp_pivots;
        bb_nodes;
        (* one unit per arm raced (at least one even for injected
           attempts) keeps pure-heuristic attempts draining a
           total-work ledger, and makes the racing itself accountable *)
        work_units = lp_pivots + bb_nodes + max 1 arms_run;
        budget_hit;
      }
    in
    Obs.Trace.add_attr "feasible" (Obs.Trace.Bool feasible);
    Obs.Trace.add_attr "arm" (Obs.Trace.Str arm);
    Obs.Trace.add_attr "pivots" (Obs.Trace.Int lp_pivots);
    Obs.Trace.add_attr "nodes" (Obs.Trace.Int bb_nodes);
    a
  in
  (* Committing an attempt (log + metrics + ledger) is separated from
     probing it: speculative probes that lose the race to an earlier
     feasible II are discarded uncommitted, so the recorded search is
     bit-identical to the serial one. *)
  let commit (a : attempt) =
    log := a :: !log;
    Obs.Log.event "ii_search.commit"
      ~attrs:
        [
          ("ii", Obs.Log.Int a.ii);
          ("arm", Obs.Log.Str a.arm);
          ("feasible", Obs.Log.Bool a.feasible);
          ("work_units", Obs.Log.Int a.work_units);
          ("budget_hit", Obs.Log.Bool a.budget_hit);
        ];
    (match ledger with
    | Some b -> Resil.Budget.charge b a.work_units
    | None -> ());
    Obs.Metrics.inc m_attempts;
    if a.tried_exact then Obs.Metrics.inc m_exact;
    if a.feasible then arm_won a.arm
    else if a.arm = "none" then Obs.Metrics.inc m_no_arm_won;
    Obs.Metrics.observe h_attempt_s a.solve_time_s
  in
  let try_at ii =
    Obs.Trace.with_span "ii_search.attempt"
      ~attrs:[ ("ii", Obs.Trace.Int ii) ]
    @@ fun () ->
    let t0 = Resil.Clock.now () in
    (* Fault-injection point: an armed ["ii_search.attempt"] fault turns
       this probe into a budget-exhausted infeasible attempt, exercising
       the relax-and-retry and degradation paths without a crash. *)
    let injected =
      Resil.Inject.armed () && Resil.Inject.hit "ii_search.attempt"
    in
    let res, arm, arms_run, bb, budget_hit =
      if injected then (None, "none", 1, None, true)
      else
        match solver with
        | Heuristic ->
          let s, arm, arms_run = race ~insts ~deps g cfg ~num_sms ~ii in
          (Option.map (fun s -> (s, false)) s, arm, arms_run, None, false)
        | Exact nb -> (
          (* The attempt's one solve limit: a fresh root token (so probes
             stay pure functions of their candidate II under parallel
             speculation) carrying the paper's per-attempt wall clock. *)
          let tok =
            Resil.Budget.create ~label:"ii_search.attempt"
              ?wall_s:budget.exact_time_s ()
          in
          (* Warm start: hand the ILP the heuristic's schedule as its
             incumbent — branch-and-bound verifies it against the full
             constraint system and, the problem being pure feasibility,
             returns it without exploring.  Only a heuristic failure pays
             for a cold exact solve. *)
          let warm_start =
            match Heuristic.solve ~insts ~deps g cfg ~num_sms ~ii with
            | `Schedule s -> Some s
            | `Infeasible -> None
          in
          let bb = ref None in
          match
            Ilp.solve ~node_budget:nb ~budget:tok ~insts ~deps ?warm_start
              ~stats:bb g cfg ~num_sms ~ii
          with
          | `Schedule s -> (Some (s, true), "exact", 1, !bb, false)
          | `Infeasible | `Budget_exhausted ->
            (* a failed solve was cut short when its token is spent *)
            (None, "none", 1, !bb, Resil.Budget.over tok))
    in
    let tried_exact =
      match solver with Exact _ -> not injected | Heuristic -> false
    in
    ( res,
      mk_attempt ~ii ~arm ~arms_run ~tried_exact ~feasible:(res <> None)
        ~budget_hit ~t0 bb )
  in
  let max_ii = int_of_float (float_of_int lb *. (1.0 +. max_relax)) + 1 in
  let next_ii ii =
    max (ii + 1)
      (int_of_float (Float.round (float_of_int ii *. (1.0 +. relax_step))))
  in
  let success ~ii (s, from_exact) =
    (* LNS refinement: the upward search stops at the first feasible
       candidate; spend leftover rounds (and ledger) probing below it.
       Runs serially after the parallel window committed, so the refined
       schedule is a pure function of the committed search state. *)
    let s, ii, refined =
      let skip =
        lns_rounds <= 0 || ii <= lb
        || (match solver with Exact _ -> true | Heuristic -> false)
      in
      if skip then (s, ii, false)
      else begin
        let ledger_ok () = ledger_over () = None in
        let commit_probe (p : Lns.probe) =
          commit
            {
              ii = p.Lns.target;
              arm = "lns";
              tried_exact = false;
              feasible = p.Lns.feasible;
              solve_time_s = p.Lns.time_s;
              lp_pivots = 0;
              bb_nodes = 0;
              work_units = 1;
              budget_hit = false;
            }
        in
        let s' =
          Lns.refine ~rounds:lns_rounds ~ledger_ok ~commit:commit_probe ~insts
            ~deps g cfg ~num_sms ~lb s
        in
        if s'.Swp_schedule.ii < ii then begin
          Obs.Metrics.inc m_lns_improved;
          arm_won "lns";
          Obs.Metrics.observe h_lns_pct
            (100.0
            *. float_of_int (ii - s'.Swp_schedule.ii)
            /. float_of_int (max 1 ii));
          (s', s'.Swp_schedule.ii, true)
        end
        else (s, ii, false)
      end
    in
    let relaxation = float_of_int (ii - lb) /. float_of_int (max 1 lb) in
    Obs.Metrics.observe h_relax relaxation;
    Obs.Trace.add_attr "achieved_ii" (Obs.Trace.Int ii);
    Obs.Trace.add_attr "attempts" (Obs.Trace.Int (List.length !log));
    Obs.Log.event "ii_search.done"
      ~attrs:
        [
          ("achieved_ii", Obs.Log.Int ii);
          ("refined", Obs.Log.Bool refined);
        ];
    Ok
      ( s,
        {
          lower_bound = lb;
          bounds;
          achieved_ii = ii;
          attempts = List.length !log;
          relaxation;
          used_exact = from_exact && not refined;
          refined;
          attempt_log = List.rev !log;
        } )
  in
  let stop_for reason =
    match reason with
    | Resil.Budget.Work ->
      fail ~reason:`Budget
        (Printf.sprintf
           "II search work budget exhausted after %d committed attempts \
            (bound %d)"
           (List.length !log) lb)
    | Resil.Budget.Wall ->
      fail ~reason:`Deadline
        (Printf.sprintf
           "II search deadline exceeded after %d committed attempts (bound %d)"
           (List.length !log) lb)
  in
  (* The candidate sequence lb, next_ii lb, ... is fixed up front by
     (lb, relax_step) and each probe is a pure function of its candidate,
     so the search can speculate: probe the next K candidates
     concurrently, then walk the window in candidate order and commit the
     smallest feasible one — exactly the candidate the serial loop would
     have stopped at, with exactly its attempt log (later probes are
     wasted work, not observable results).  K = 1 (no global pool, or
     nested under another fan-out) is the serial search, window of one. *)
  let rec loop ii =
    match ledger_over () with
    | Some r -> stop_for r
    | None ->
    if ii > max_ii then begin
      fail ~reason:`Range
        (Printf.sprintf "no feasible schedule up to II=%d (bound %d)" max_ii lb)
    end
    else begin
      let k = max 1 (Par.Pool.parallelism ()) in
      let window =
        let rec take c n acc =
          if n = 0 || c > max_ii then List.rev acc
          else take (next_ii c) (n - 1) (c :: acc)
        in
        take ii k []
      in
      let probes = Par.Pool.map_auto try_at window in
      let rec scan cands probes =
        match (cands, probes) with
        | [], _ | _, [] ->
          (* window exhausted, nothing feasible: continue past it *)
          loop (next_ii (List.nth window (List.length window - 1)))
        | ii :: cands', (res, a) :: probes' -> (
          commit a;
          match res with
          | Some r -> success ~ii r
          | None -> (
            (* the ledger is only consulted at commit points, the same
               points the serial search would consult it at *)
            match ledger_over () with
            | Some r -> stop_for r
            | None -> scan cands' probes'))
      in
      scan window probes
    end
  in
  loop lb
