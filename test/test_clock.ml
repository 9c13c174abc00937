(* The single substitutable wall clock (Resil.Clock) and the
   clock-domain bugfix it carries: every deadline reader — Budget wall
   guards, the solver stack's time limits, Compile's stage spends —
   goes through Clock.now, so a test can drive time deterministically
   and `--jobs N` no longer inflates elapsed time the way the old
   Sys.time (process CPU time) reads did. *)

let t name f = Alcotest.test_case name `Quick f

let feq = Alcotest.(check (float 1e-9))

let clock_tests =
  [
    t "ticker advances by step" (fun () ->
        let src = Resil.Clock.ticker ~t0:100.0 ~step:2.5 () in
        feq "first" 100.0 (src ());
        feq "second" 102.5 (src ());
        feq "third" 105.0 (src ()));
    t "now clamps a retreating source" (fun () ->
        let vals = ref [ 5.0; 3.0; 10.0; 1.0 ] in
        let src () =
          match !vals with
          | x :: r ->
            vals := r;
            x
          | [] -> 99.0
        in
        Resil.Clock.with_source src (fun () ->
            feq "first read" 5.0 (Resil.Clock.now ());
            feq "retreat clamped" 5.0 (Resil.Clock.now ());
            feq "advance passes" 10.0 (Resil.Clock.now ());
            feq "retreat clamped again" 10.0 (Resil.Clock.now ())));
    t "with_source restores the real clock, even on exception" (fun () ->
        let before = Unix.gettimeofday () in
        (try
           Resil.Clock.with_source
             (fun () -> 0.0)
             (fun () ->
               feq "fake active" 0.0 (Resil.Clock.now ());
               failwith "boom")
         with Failure _ -> ());
        Alcotest.(check bool) "real clock back" true
          (Resil.Clock.now () >= before));
  ]

let budget_tests =
  [
    t "wall deadline fires on the fake clock" (fun () ->
        Resil.Clock.with_source
          (Resil.Clock.ticker ~t0:0.0 ~step:10.0 ())
          (fun () ->
            let b = Resil.Budget.create ~label:"w" ~wall_s:5.0 () in
            Alcotest.(check bool) "expired after one 10s tick" true
              (Resil.Budget.over b);
            match Resil.Budget.exhausted_reason b with
            | Some Resil.Budget.Wall -> ()
            | _ -> Alcotest.fail "expected Wall exhaustion"));
    t "frozen clock never expires a wall deadline" (fun () ->
        Resil.Clock.with_source
          (fun () -> 7.0)
          (fun () ->
            let b = Resil.Budget.create ~wall_s:0.5 () in
            for _ = 1 to 1000 do
              Resil.Budget.charge b 1
            done;
            Alcotest.(check bool) "still alive" false (Resil.Budget.over b)));
  ]

(* The regression the bugfix exists for: a compile under `--deadline`
   must measure *wall* time.  Under a frozen clock no wall time ever
   passes, so even a microscopic deadline must not degrade the compile
   — at --jobs 1 and at --jobs 4 alike.  (The old Sys.time readers
   measured process CPU time, which still advances under a frozen wall
   clock and advances ~N x faster with N domains busy, so this test
   fails on them both serially and, worse, in parallel.) *)

let graph () = Streamit.Flatten.flatten (Benchmarks.Fm_radio.stream ())

let compile_frozen jobs =
  Par.Pool.set_jobs jobs;
  Fun.protect
    ~finally:(fun () -> Par.Pool.set_jobs 1)
    (fun () ->
      Resil.Clock.with_source
        (fun () -> 1234.5)
        (fun () ->
          Swp_core.Profile.clear_cache ();
          match
            Swp_core.Compile.compile ~deadline:0.001 ~coarsening:8 (graph ())
          with
          | Error m -> Alcotest.fail m
          | Ok c -> c))

let deadline_tests =
  [
    t "deadline is wall-clock-correct at --jobs 1" (fun () ->
        let c = compile_frozen 1 in
        Alcotest.(check bool) "not degraded under frozen clock" true
          (c.Swp_core.Compile.quality <> Swp_core.Compile.Degraded));
    t "deadline is wall-clock-correct at --jobs 4" (fun () ->
        let c1 = compile_frozen 1 and c4 = compile_frozen 4 in
        Alcotest.(check bool) "not degraded under frozen clock" true
          (c4.Swp_core.Compile.quality <> Swp_core.Compile.Degraded);
        Alcotest.(check string) "same schedule as --jobs 1"
          (Swp_core.Report.schedule_signature c1)
          (Swp_core.Report.schedule_signature c4));
    t "jumping clock does expire the deadline" (fun () ->
        (* One hour per clock read blows a 1s deadline immediately.
           Depending on which stage notices first this is either a
           structured budget-exhausted Error (profile/select) or a
           Degraded compile (search) — never a full-quality result. *)
        Resil.Clock.with_source
          (Resil.Clock.ticker ~t0:0.0 ~step:3600.0 ())
          (fun () ->
            Swp_core.Profile.clear_cache ();
            match
              Swp_core.Compile.compile ~deadline:1.0 ~coarsening:8 (graph ())
            with
            | Error m ->
              let contains sub =
                let n = String.length m and k = String.length sub in
                let rec go i = i + k <= n && (String.sub m i k = sub || go (i + 1)) in
                go 0
              in
              Alcotest.(check bool) ("structured exhaustion: " ^ m) true
                (contains "budget exhausted")
            | Ok c ->
              Alcotest.(check bool) "degraded" true
                (c.Swp_core.Compile.quality = Swp_core.Compile.Degraded)));
    t "a wall-capped exact attempt is logged as a budget hit" (fun () ->
        (* Only [Exact] mode solves the ILP under a wall clock.  On
           generated stream 50 at 2 SMs the first-fit packing fails near
           the bound, so those candidates pay for a cold exact solve.
           One hour per clock read spends the 1 s allotment before the
           solve takes a step, so every exact attempt that found no
           schedule was cut by the cap.  There is no search-wide limit,
           so the search still finds a schedule further up. *)
        let g = Streamit.Flatten.flatten (Check.Gen.stream ~seed:50 ()) in
        let c = Result.get_ok (Swp_core.Compile.compile ~num_sms:2 g) in
        let budget =
          { Swp_core.Ii_search.default_budget with exact_time_s = Some 1.0 }
        in
        Resil.Clock.with_source
          (Resil.Clock.ticker ~t0:0.0 ~step:3600.0 ())
          (fun () ->
            match
              Swp_core.Ii_search.search ~solver:(Swp_core.Ii_search.Exact 2000)
                ~budget g c.Swp_core.Compile.config ~num_sms:2
            with
            | Error e -> Alcotest.fail e.Swp_core.Ii_search.message
            | Ok (_, st) ->
              let exact =
                List.filter
                  (fun (a : Swp_core.Ii_search.attempt) ->
                    a.Swp_core.Ii_search.tried_exact
                    && not a.Swp_core.Ii_search.feasible)
                  st.Swp_core.Ii_search.attempt_log
              in
              Alcotest.(check bool) "some attempt tried the exact ILP" true
                (exact <> []);
              List.iter
                (fun (a : Swp_core.Ii_search.attempt) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "budget_hit at II=%d" a.Swp_core.Ii_search.ii)
                    true a.Swp_core.Ii_search.budget_hit)
                exact));
  ]

(* A default compile reads the clock only to time itself: under a clock
   that jumps an hour per read, every registry program at every SM count
   and coarsening factor commits the same search and the same schedule
   as under the real clock.  No committed attempt solves an LP or ILP,
   and no bound does either.  Generated stream 50 at 2 SMs fails every
   packing near its bound, the case an exact arm would be tried on. *)
let host_independence_tests =
  [
    t "default compiles do not depend on the clock" (fun () ->
        let compile g ~num_sms ~coarsening =
          match Swp_core.Compile.compile ~num_sms ~coarsening g with
          | Error m -> Alcotest.fail m
          | Ok c -> c
        in
        let check name g ~num_sms ~coarsening =
          let real = compile g ~num_sms ~coarsening in
          let jumping =
            Resil.Clock.with_source
              (Resil.Clock.ticker ~t0:0.0 ~step:3600.0 ())
              (fun () -> compile g ~num_sms ~coarsening)
          in
          let where =
            Printf.sprintf "%s at %d SMs, coarsening %d" name num_sms coarsening
          in
          Alcotest.(check string) where
            (Swp_core.Report.schedule_signature real)
            (Swp_core.Report.schedule_signature jumping);
          List.iter
            (fun (a : Swp_core.Ii_search.attempt) ->
              Alcotest.(check (triple bool int int))
                (Printf.sprintf "%s: no solve at II=%d" where
                   a.Swp_core.Ii_search.ii)
                (false, 0, 0)
                ( a.Swp_core.Ii_search.tried_exact,
                  a.Swp_core.Ii_search.lp_pivots,
                  a.Swp_core.Ii_search.bb_nodes ))
            real.Swp_core.Compile.search_stats.Swp_core.Ii_search.attempt_log
        in
        List.iter
          (fun (e : Benchmarks.Registry.entry) ->
            let g = Streamit.Flatten.flatten (e.Benchmarks.Registry.stream ()) in
            List.iter
              (fun num_sms ->
                List.iter
                  (fun coarsening ->
                    check e.Benchmarks.Registry.name g ~num_sms ~coarsening)
                  [ 1; 8 ])
              [ 2; 4; 6; 8; 16 ])
          Benchmarks.Registry.all;
        check "generated stream 50"
          (Streamit.Flatten.flatten (Check.Gen.stream ~seed:50 ()))
          ~num_sms:2 ~coarsening:1;
        (* The small-delay rewrite of generated stream 301 at 3 SMs (the
           [lp_bound_sound] rewrite of test_quality) fits the LP bound's
           size gate, yet that bound's pivot allotment spends ~20 s
           there to prove nothing.  Only [Exact] mode pays for it. *)
        let pivots = Obs.Metrics.counter "lp.pivots" in
        let before = Obs.Metrics.value pivots in
        let g = Streamit.Flatten.flatten (Check.Gen.stream ~seed:301 ()) in
        let cfg = (compile g ~num_sms:3 ~coarsening:1).Swp_core.Compile.config in
        let cfg =
          {
            cfg with
            Swp_core.Select.delay =
              Array.map (fun d -> 1 + (d mod 4)) cfg.Swp_core.Select.delay;
          }
        in
        let search () =
          match Swp_core.Ii_search.search g cfg ~num_sms:3 with
          | Error e -> Alcotest.fail e.Swp_core.Ii_search.message
          | Ok (_, st) -> st
        in
        let real = search () in
        let jumping =
          Resil.Clock.with_source
            (Resil.Clock.ticker ~t0:0.0 ~step:3600.0 ())
            search
        in
        Alcotest.(check string) "small-delay stream 301 at 3 SMs"
          (Swp_core.Ii_search.log_signature real)
          (Swp_core.Ii_search.log_signature jumping);
        Alcotest.(check (option int)) "small-delay stream 301: lp skipped" None
          real.Swp_core.Ii_search.bounds.Swp_core.Mii.lp;
        Alcotest.(check int) "no lp.pivots" before (Obs.Metrics.value pivots));
  ]

let suite =
  clock_tests @ budget_tests @ deadline_tests @ host_independence_tests
