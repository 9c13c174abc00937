type scheme = Swp_coalesced | Swp_non_coalesced
type quality = Exact | Refined | Heuristic | Degraded

type stage_spend = { stage : string; wall_s : float; work : int }

type rationale =
  | Completed
  | Search_stopped of Ii_search.reason
  | Fault_at of string
  | Budget_exhausted of string * Resil.Budget.reason

type prov = {
  stage_spends : stage_spend list;
  ledger_total : int;
  rationale : rationale;
  fallback_seed_ii : int option;
  total_wall_s : float;
}

type compiled = {
  arch : Gpusim.Arch.t;
  scheme : scheme;
  graph : Streamit.Graph.t;
  rates : Streamit.Sdf.rates;
  profile : Profile.data;
  config : Select.config;
  schedule : Swp_schedule.t;
  search_stats : Ii_search.stats;
  sizing : Buffer_layout.sizing;
  coarsening : int;
  quality : quality;
  prov : prov;
}

let quality_name = function
  | Exact -> "exact"
  | Refined -> "refined"
  | Heuristic -> "heuristic"
  | Degraded -> "degraded"

let pp_quality fmt q = Format.pp_print_string fmt (quality_name q)

let rationale_name = function
  | Completed -> "completed"
  | Search_stopped r -> Format.asprintf "search stopped (%a)" Ii_search.pp_reason r
  | Fault_at site -> Printf.sprintf "fault injected at %s" site
  | Budget_exhausted (label, r) ->
    Format.asprintf "%s exhausted (%a)" label Resil.Budget.pp_reason r

let pp_rationale fmt r = Format.pp_print_string fmt (rationale_name r)

let m_exact = Obs.Metrics.counter "compile.quality.exact"
let m_refined = Obs.Metrics.counter "compile.quality.refined"
let m_heuristic = Obs.Metrics.counter "compile.quality.heuristic"
let m_degraded = Obs.Metrics.counter "compile.quality.degraded"

let ( let* ) = Result.bind

let inject site = if Resil.Inject.armed () then Resil.Inject.fire site

let compile ?(arch = Gpusim.Arch.geforce_8800_gts_512) ?num_sms
    ?(coarsening = 1) ?solver ?lns_rounds
    ?(scheme = Swp_coalesced) ?deadline ?budget ?(on_budget = `Degrade)
    ?seed_ii graph =
  let num_sms = Option.value num_sms ~default:arch.Gpusim.Arch.num_sms in
  Obs.Trace.with_span "compile"
    ~attrs:
      [
        ( "scheme",
          Obs.Trace.Str
            (match scheme with
            | Swp_coalesced -> "SWP"
            | Swp_non_coalesced -> "SWPNC") );
        ("num_sms", Obs.Trace.Int num_sms);
      ]
  @@ fun () ->
  if coarsening < 1 then
    Error (Printf.sprintf "invalid coarsening %d: must be >= 1" coarsening)
  else if num_sms < 1 then
    Error (Printf.sprintf "invalid num_sms %d: must be >= 1" num_sms)
  else if (match budget with Some b -> b < 0 | None -> false) then
    Error "invalid budget: must be >= 0 work units"
  else if (match deadline with Some d -> d <= 0.0 | None -> false) then
    Error "invalid deadline: must be > 0 seconds"
  else begin
    (* The compile ledger is the root of the budget-token tree: each
       stage charges a sub-token, so charges roll up and the per-stage
       spends sum exactly to the root's total.  A [deadline] arms the
       root's wall clock — profiling and selection check their sub-token
       cooperatively (the parent chain supplies the deadline), and
       whatever real time is left when the II search starts becomes its
       deadline.  Without a deadline the tokens are pure accounting and
       never raise. *)
    let t_start = Resil.Clock.now () in
    let ledger = Resil.Budget.create ~label:"compile" ?wall_s:deadline () in
    let spends = ref [] in
    (* Per-stage wall + work accounting.  [Fun.protect] so a fault or an
       exhausted deadline raised mid-stage still records the partial
       spend (the flight record of a failed compile must not dangle). *)
    let staged name tok f =
      let t0 = Resil.Clock.now () in
      Fun.protect f ~finally:(fun () ->
          spends :=
            {
              stage = name;
              wall_s = Resil.Clock.now () -. t0;
              work = Resil.Budget.consumed tok;
            }
            :: !spends)
    in
    let tok_profile = Resil.Budget.sub ~label:"compile/profile" ledger in
    let tok_select = Resil.Budget.sub ~label:"compile/select" ledger in
    let tok_search = Resil.Budget.sub ~label:"compile/search" ledger in
    let tok_layout = Resil.Budget.sub ~label:"compile/layout" ledger in
    let finish ~quality ~rationale ?fallback_seed_ii rates profile config
        schedule search_stats =
      Obs.Trace.add_attr "ii" (Obs.Trace.Int schedule.Swp_schedule.ii);
      Obs.Trace.add_attr "quality" (Obs.Trace.Str (quality_name quality));
      let sizing =
        staged "layout" tok_layout (fun () ->
            inject "stage.layout";
            let s = Buffer_layout.size_buffers graph schedule ~coarsening in
            Resil.Budget.charge tok_layout
              (List.length s.Buffer_layout.per_edge);
            s)
      in
      Obs.Metrics.inc
        (match quality with
        | Exact -> m_exact
        | Refined -> m_refined
        | Heuristic -> m_heuristic
        | Degraded -> m_degraded);
      let prov =
        {
          stage_spends = List.rev !spends;
          ledger_total = Resil.Budget.consumed ledger;
          rationale;
          fallback_seed_ii;
          total_wall_s = Resil.Clock.now () -. t_start;
        }
      in
      Obs.Log.event "compile.finish"
        ~attrs:
          [
            ("quality", Obs.Log.Str (quality_name quality));
            ("ii", Obs.Log.Int schedule.Swp_schedule.ii);
            ("rationale", Obs.Log.Str (rationale_name rationale));
            ("ledger_total", Obs.Log.Int prov.ledger_total);
          ];
      Ok
        {
          arch;
          scheme;
          graph;
          rates;
          profile;
          config;
          schedule;
          search_stats;
          sizing;
          coarsening;
          quality;
          prov;
        }
    in
    try
      let* () = Streamit.Graph.validate graph in
      let* rates = Streamit.Sdf.steady_state graph in
      let mode =
        match scheme with
        | Swp_coalesced -> Profile.Coalesced
        | Swp_non_coalesced -> Profile.Non_coalesced
      in
      let profile =
        staged "profile" tok_profile (fun () ->
            inject "stage.profile";
            Profile.run ~budget:tok_profile arch graph ~mode)
      in
      let* config =
        staged "select" tok_select (fun () ->
            inject "stage.select";
            Select.select ~budget:tok_select graph rates profile)
      in
      let search_budget =
        {
          Ii_search.default_budget with
          Ii_search.total_work = budget;
          wall_clock_s =
            Option.map
              (fun d -> Float.max 0.0 (d -. (Resil.Clock.now () -. t_start)))
              deadline;
        }
      in
      let search_result =
        staged "search" tok_search (fun () ->
            (* A fault or budget exhaustion inside the search stage is
               recoverable: the fallback scheduler below still has
               everything it needs (the profile and configuration). *)
            let r =
              try
                inject "stage.search";
                Result.map_error
                  (fun e -> `Search e)
                  (Ii_search.search ?solver ?lns_rounds ~budget:search_budget
                     graph config ~num_sms)
              with
              | Resil.Inject.Injected site -> Error (`Fault site)
              | Resil.Budget.Exhausted { label; reason } ->
                Error (`Exhausted (label, reason))
            in
            (* The search runs its own enforcement ledger; the compile
               ledger is charged post-hoc with the committed spend so the
               stage accounting matches the attempt log exactly. *)
            let committed =
              match r with
              | Ok (_, (st : Ii_search.stats)) -> st.Ii_search.attempt_log
              | Error (`Search (e : Ii_search.error)) ->
                e.Ii_search.attempt_log
              | Error (`Fault _ | `Exhausted _) -> []
            in
            Resil.Budget.charge tok_search
              (List.fold_left
                 (fun acc (a : Ii_search.attempt) ->
                   acc + a.Ii_search.work_units)
                 0 committed);
            r)
      in
      match search_result with
      | Ok (schedule, search_stats) ->
        let quality =
          if search_stats.Ii_search.refined then Refined
          else if search_stats.Ii_search.used_exact then Exact
          else Heuristic
        in
        finish ~quality ~rationale:Completed rates profile config schedule
          search_stats
      | Error err -> (
        let message =
          match err with
          | `Search (e : Ii_search.error) ->
            Format.asprintf "II search failed (%a): %s" Ii_search.pp_reason
              e.Ii_search.reason e.Ii_search.message
          | `Fault site -> Printf.sprintf "fault injected at %s" site
          | `Exhausted (label, reason) ->
            Format.asprintf "%s budget exhausted (%a)" label
              Resil.Budget.pp_reason reason
        in
        let recoverable =
          match err with
          | `Fault _ | `Exhausted _ -> true
          | `Search e -> (
            match e.Ii_search.reason with
            | `Budget | `Deadline -> true
            | `Unschedulable | `Range -> false)
        in
        if on_budget = `Fail || not recoverable then Error message
        else
          (* Degradation ladder, last rung: a guaranteed-feasible serial
             schedule at a relaxed II.  The search's committed attempt
             log is preserved in the synthesized stats so the degraded
             compile stays auditable. *)
          let lower_bound, bounds, attempt_log =
            match err with
            | `Search e ->
              ( e.Ii_search.lower_bound,
                Option.value e.Ii_search.bounds ~default:Mii.unknown_bounds,
                e.Ii_search.attempt_log )
            | `Fault _ | `Exhausted _ -> (0, Mii.unknown_bounds, [])
          in
          (* Seed the fallback with the search's frontier: one past the
             last committed candidate (all committed candidates were
             infeasible or the search would have returned Ok); else the
             caller's [?seed_ii] hint (the serve cache warm-starts here
             from a previously achieved II when only one filter
             changed); else the bound itself.  Quality stays [Degraded]
             — the seed only shrinks the relaxation. *)
          let seed_ii =
            match List.rev attempt_log with
            | a :: _ -> Some (a.Ii_search.ii + 1)
            | [] -> (
              match seed_ii with
              | Some h -> Some (max h lower_bound)
              | None -> if lower_bound > 0 then Some lower_bound else None)
          in
          let rationale =
            match err with
            | `Search e -> Search_stopped e.Ii_search.reason
            | `Fault site -> Fault_at site
            | `Exhausted (label, reason) -> Budget_exhausted (label, reason)
          in
          Obs.Log.event "compile.degrade"
            ~attrs:
              [
                ("rationale", Obs.Log.Str (rationale_name rationale));
                ( "seed_ii",
                  match seed_ii with
                  | Some i -> Obs.Log.Int i
                  | None -> Obs.Log.Str "none" );
              ];
          let* schedule = Fallback.schedule ?seed_ii graph config ~num_sms in
          let achieved_ii = schedule.Swp_schedule.ii in
          let search_stats =
            {
              Ii_search.lower_bound;
              bounds;
              achieved_ii;
              attempts = List.length attempt_log;
              relaxation =
                (if lower_bound > 0 then
                   float_of_int (achieved_ii - lower_bound)
                   /. float_of_int lower_bound
                 else 0.0);
              used_exact = false;
              refined = false;
              attempt_log;
            }
          in
          finish ~quality:Degraded ~rationale ?fallback_seed_ii:seed_ii rates
            profile config schedule search_stats)
    with
    | Resil.Inject.Injected site ->
      Error (Printf.sprintf "fault injected at %s" site)
    | Resil.Budget.Exhausted { label; reason } ->
      Error
        (Format.asprintf "%s budget exhausted (%a)" label
           Resil.Budget.pp_reason reason)
  end

let recoarsen c n =
  if n <= 0 then invalid_arg "Compile.recoarsen: non-positive factor";
  {
    c with
    coarsening = n;
    sizing = Buffer_layout.size_buffers c.graph c.schedule ~coarsening:n;
  }

let layout_of_node c node =
  match c.scheme with
  | Swp_coalesced -> Gpusim.Timing.Shuffled
  | Swp_non_coalesced ->
    Profile.layout_for c.arch Profile.Non_coalesced node
      ~threads:c.config.Select.threads.(node.Streamit.Graph.id)

let pp_summary fmt c =
  Format.fprintf fmt
    "@[<v>compiled %s scheme=%s quality=%s@,\
     nodes=%d instances=%d@,\
     regs=%d block_threads=%d scale=%d@,\
     %a@,\
     stages=%d coarsening=%d buffers=%d bytes@]"
    c.arch.Gpusim.Arch.name
    (match c.scheme with
    | Swp_coalesced -> "SWP"
    | Swp_non_coalesced -> "SWPNC")
    (quality_name c.quality)
    (Streamit.Graph.num_nodes c.graph)
    (Instances.num_instances c.config)
    c.config.Select.regs c.config.Select.block_threads c.config.Select.scale
    Ii_search.pp_stats c.search_stats
    (Swp_schedule.stages c.schedule)
    c.coarsening c.sizing.Buffer_layout.total_bytes
