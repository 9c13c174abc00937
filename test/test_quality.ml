(* Property tests for the II-quality work: the sharpened/LP lower
   bounds, the portfolio search, and LNS refinement.

   All properties are checked over {!Check.Gen} streams (pinned seed
   ranges, so the suite is deterministic) plus the registry benchmarks
   that exercise the refinement path end to end:

   - every lower bound the search reports is actually below (or at) the
     II it achieves, whatever ladder rung paid for the schedule;
   - the sharpened combinatorial bound dominates the classic one, and
     the LP/cutting-plane bound dominates its combinatorial start while
     staying sound against the search's achieved II;
   - a refined (LNS) schedule still satisfies the full constraint
     system and the buffer-layout bijections of eqs. (9)-(11). *)

let t name f = Alcotest.test_case name `Quick f

(* Pipeline front half shared by the bound properties: generated stream
   -> graph -> rates -> profile -> config.  Seeds whose streams the
   pipeline legitimately rejects (oversized steady state, infeasible
   configuration) are skipped, mirroring the fuzz driver. *)
let config_of_seed seed =
  let s = Check.Gen.stream ~seed () in
  match (try Ok (Streamit.Flatten.flatten s) with Failure m -> Error m) with
  | Error _ -> None
  | Ok g -> (
    match Streamit.Sdf.steady_state g with
    | Error _ -> None
    | Ok rates
      when Array.fold_left ( + ) 0 rates.Streamit.Sdf.reps
           > Check.Gen.max_steady_firings ->
      None
    | Ok rates -> (
      let arch = Gpusim.Arch.geforce_8800_gts_512 in
      let profile =
        Swp_core.Profile.run arch g ~mode:Swp_core.Profile.Coalesced
      in
      match Swp_core.Select.select g rates profile with
      | Error _ -> None
      | Ok cfg -> Some (g, cfg, arch.Gpusim.Arch.num_sms)))

let seeds = List.init 40 (fun i -> 1000 + i)

let bound_le_achieved () =
  let checked = ref 0 in
  List.iter
    (fun seed ->
      match config_of_seed seed with
      | None -> ()
      | Some (g, _, _) -> (
        match Swp_core.Compile.compile g with
        | Error _ -> ()
        | Ok c ->
          incr checked;
          let st = c.Swp_core.Compile.search_stats in
          if
            st.Swp_core.Ii_search.lower_bound
            > st.Swp_core.Ii_search.achieved_ii
          then
            Alcotest.failf
              "seed %d: lower bound %d exceeds achieved II %d (quality %s)"
              seed st.Swp_core.Ii_search.lower_bound
              st.Swp_core.Ii_search.achieved_ii
              (Swp_core.Compile.quality_name c.Swp_core.Compile.quality)))
    seeds;
  if !checked < 5 then
    Alcotest.failf "only %d/%d seeds compiled: generator drifted?" !checked
      (List.length seeds)

let sharp_dominates_classic () =
  let checked = ref 0 in
  List.iter
    (fun seed ->
      match config_of_seed seed with
      | None -> ()
      | Some (g, cfg, num_sms) -> (
        try
          let classic =
            Swp_core.Mii.lower_bound ~level:Swp_core.Mii.Classic g cfg
              ~num_sms
          in
          let sharp =
            Swp_core.Mii.lower_bound ~level:Swp_core.Mii.Sharp g cfg ~num_sms
          in
          incr checked;
          if sharp < classic then
            Alcotest.failf "seed %d: sharp bound %d below classic bound %d"
              seed sharp classic
        with Swp_core.Mii.Unschedulable _ -> ()))
    seeds;
  if !checked < 5 then
    Alcotest.failf "only %d/%d seeds reached the bound: generator drifted?"
      !checked (List.length seeds)

(* The LP/cutting-plane bound: >= its combinatorial start by
   construction, and sound — never above an II the search actually
   achieves.  Generated streams carry profile-scale delays (IIs in the
   thousands), outside the magnitude gate the search applies, so this
   property is driven through small-delay variants of generated
   configs: the delays are rewritten to small values, which keeps the
   instance/dependence structure and makes every bound small enough for
   the exact-rational LP to be cheap. *)
let lp_bound_sound () =
  let checked = ref 0 in
  List.iter
    (fun seed ->
      match config_of_seed seed with
      | None -> ()
      | Some (g, cfg, _) -> (
        let cfg =
          {
            cfg with
            Swp_core.Select.delay =
              Array.map
                (fun d -> 1 + (d mod (3 + (seed mod 5))))
                cfg.Swp_core.Select.delay;
          }
        in
        let num_sms = 2 + (seed mod 3) in
        try
          let start = Swp_core.Mii.lower_bound g cfg ~num_sms in
          if
            Swp_core.Instances.num_instances cfg * num_sms <= 128
            && start <= 256
          then begin
            let lp = Swp_core.Mii.lp_bound g cfg ~num_sms ~start in
            incr checked;
            if lp < start then
              Alcotest.failf "seed %d: lp bound %d below its start %d" seed lp
                start;
            match Swp_core.Ii_search.search g cfg ~num_sms with
            | Error _ -> ()
            | Ok (_, st) ->
              let achieved = st.Swp_core.Ii_search.achieved_ii in
              if lp > achieved then
                Alcotest.failf
                  "seed %d: lp bound %d refutes an achieved schedule at II=%d"
                  seed lp achieved
          end
        with Swp_core.Mii.Unschedulable _ -> ()))
    seeds;
  if !checked < 3 then
    Alcotest.failf "only %d seeds exercised lp_bound: gate drifted?" !checked

(* Refinement end to end on the registry benchmarks whose first
   feasible candidate sits above the bound: the refined schedule must
   pass the full constraint-system validation and every structural
   invariant (incl. the (9)-(11) buffer-map bijections), and a refined
   search must have committed a feasible arm="lns" attempt. *)
let refined_benchmarks = [ "BitonicRec"; "DES"; "Filterbank" ]

let lns_refined_validates () =
  let refined = ref 0 in
  List.iter
    (fun name ->
      let e =
        match Benchmarks.Registry.find name with
        | Some e -> e
        | None -> Alcotest.failf "unknown benchmark %s" name
      in
      let g = Streamit.Flatten.flatten (e.Benchmarks.Registry.stream ()) in
      match Swp_core.Compile.compile g with
      | Error m -> Alcotest.failf "%s: compile failed: %s" name m
      | Ok c ->
        (match Swp_core.Swp_schedule.validate g c.Swp_core.Compile.schedule with
        | Ok () -> ()
        | Error m -> Alcotest.failf "%s: schedule invalid: %s" name m);
        (match Check.Invariants.all c with
        | Ok () -> ()
        | Error m -> Alcotest.failf "%s: invariant violated: %s" name m);
        let st = c.Swp_core.Compile.search_stats in
        if st.Swp_core.Ii_search.refined then begin
          incr refined;
          if
            not
              (List.exists
                 (fun (a : Swp_core.Ii_search.attempt) ->
                   a.Swp_core.Ii_search.arm = "lns"
                   && a.Swp_core.Ii_search.feasible)
                 st.Swp_core.Ii_search.attempt_log)
          then
            Alcotest.failf
              "%s: refined stats but no feasible lns attempt in the log" name
        end)
    refined_benchmarks;
  if !refined = 0 then
    Alcotest.fail
      "no benchmark exercised LNS refinement: the heuristic now achieves \
       the bound everywhere, pick harder refinement cases"

(* The portfolio races first-fit before any other arm, so an attempt
   it committed with no winning arm — and no budget cut — must be one
   where first-fit alone also fails.  LNS probes repair a frozen
   assignment instead of racing arms and are not covered. *)
let armless_attempts_ffd_infeasible () =
  let checked = ref 0 in
  List.iter
    (fun seed ->
      match config_of_seed seed with
      | None -> ()
      | Some (g, _, _) -> (
        match Swp_core.Compile.compile g with
        | Ok c when c.Swp_core.Compile.quality <> Swp_core.Compile.Degraded ->
          incr checked;
          let cfg = c.Swp_core.Compile.config in
          let num_sms =
            c.Swp_core.Compile.schedule.Swp_core.Swp_schedule.num_sms
          in
          List.iter
            (fun (a : Swp_core.Ii_search.attempt) ->
              if
                a.Swp_core.Ii_search.arm = "none"
                && not a.Swp_core.Ii_search.budget_hit
              then
                match
                  Swp_core.Heuristic.solve g cfg ~num_sms
                    ~ii:a.Swp_core.Ii_search.ii
                with
                | `Infeasible -> ()
                | `Schedule _ ->
                  Alcotest.failf
                    "seed %d: no arm won at II=%d, but first-fit schedules it"
                    seed a.Swp_core.Ii_search.ii)
            c.Swp_core.Compile.search_stats.Swp_core.Ii_search.attempt_log
        | _ -> ()))
    seeds;
  if !checked < 5 then
    Alcotest.failf "only %d/%d seeds compiled: generator drifted?" !checked
      (List.length seeds)

(* Achieved II of every registry program at 2-16 SMs, recorded before
   the Auto exact arm was gated on predicted cost.  Coarsening leaves the
   II alone, so each entry covers both factors checked.  No point may
   rise. *)
let grid_ii =
  [
    ("Bitonic", [ (2, 43068); (4, 22622); (6, 15226); (8, 12182); (16, 9011) ]);
    ( "BitonicRec",
      [ (2, 36316); (4, 18158); (6, 12270); (8, 9104); (16, 4808) ] );
    ( "DCT",
      [ (2, 433490); (4, 217388); (6, 148374); (8, 115862); (16, 66404) ] );
    ( "DES",
      [ (2, 589794); (4, 297546); (6, 199362); (8, 148766); (16, 77782) ] );
    ( "FFT",
      [ (2, 1139727); (4, 569944); (6, 395415); (8, 291478); (16, 162404) ] );
    ( "Filterbank",
      [ (2, 1134168); (4, 567084); (6, 378644); (8, 283542); (16, 142126) ] );
    ( "FMRadio",
      [ (2, 198932); (4, 100908); (6, 67272); (8, 50454); (16, 33636) ] );
    ( "MatrixMult",
      [ (2, 602732); (4, 301572); (6, 224819); (8, 224819); (16, 224819) ] );
  ]

let grid_ii_never_rises () =
  List.iter
    (fun (name, points) ->
      let e = Option.get (Benchmarks.Registry.find name) in
      let g = Streamit.Flatten.flatten (e.Benchmarks.Registry.stream ()) in
      List.iter
        (fun (num_sms, pinned) ->
          List.iter
            (fun coarsening ->
              match Swp_core.Compile.compile ~num_sms ~coarsening g with
              | Error m -> Alcotest.failf "%s@%d: %s" name num_sms m
              | Ok c ->
                let ii = c.Swp_core.Compile.schedule.Swp_core.Swp_schedule.ii in
                if ii > pinned then
                  Alcotest.failf "%s at %d SMs, coarsening %d: II %d > %d" name
                    num_sms coarsening ii pinned)
            [ 1; 8 ])
        points)
    grid_ii

let suite =
  [
    t "bound <= achieved II on generated streams" bound_le_achieved;
    t "sharp ResMII dominates classic" sharp_dominates_classic;
    t "lp bound >= start and sound vs achieved II" lp_bound_sound;
    t "refined schedules validate + invariants hold" lns_refined_validates;
    t "arm-less attempts are first-fit infeasible"
      armless_attempts_ffd_infeasible;
    t "registry II at 2-16 SMs never rises" grid_ii_never_rises;
  ]
