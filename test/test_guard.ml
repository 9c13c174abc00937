(* Serve-daemon hardening: the Guard admission ledger, the hardened
   Protocol reader, the Service poison-key breaker and deadline taint,
   and the Daemon loop's shedding/drain behaviour. *)

let t name f = Alcotest.test_case name `Quick f

let tiny_src =
  {|
filter A pop 0 push 1 { push(1.0); }
filter B pop 1 push 1 { push(pop() * 2.0); }
filter C pop 1 push 0 { let x = pop(); }
pipeline P { add A; add B; add C; }
|}

let tiny_graph () =
  Streamit.Flatten.flatten (Frontend.Parser.parse_program tiny_src)

let shed_reason = function
  | Cache.Guard.Shed s -> s.Cache.Guard.reason
  | Cache.Guard.Admitted _ -> Alcotest.fail "expected a shed"

let ticket = function
  | Cache.Guard.Admitted tk -> tk
  | Cache.Guard.Shed s -> Alcotest.fail ("unexpected shed: " ^ s.Cache.Guard.reason)

(* ---- Guard ----------------------------------------------------------- *)

let guard_tests =
  [
    t "count cap sheds beyond max_inflight + queue_cap" (fun () ->
        let g = Cache.Guard.create ~max_inflight:1 ~queue_cap:2 () in
        let t1 = ticket (Cache.Guard.try_admit g) in
        let t2 = ticket (Cache.Guard.try_admit g) in
        let t3 = ticket (Cache.Guard.try_admit g) in
        Alcotest.(check string) "fourth sheds" "admission queue full"
          (shed_reason (Cache.Guard.try_admit g));
        Cache.Guard.release g t1;
        let t4 = ticket (Cache.Guard.try_admit g) in
        List.iter (Cache.Guard.release g) [ t2; t3; t4 ];
        let o = Cache.Guard.occupancy g in
        Alcotest.(check int) "all released" 0 o.Cache.Guard.outstanding;
        Alcotest.(check int) "peak saw the full queue" 3
          o.Cache.Guard.peak_outstanding;
        Alcotest.(check int) "admitted counted" 4
          o.Cache.Guard.admitted_total;
        Alcotest.(check int) "shed counted" 1 o.Cache.Guard.shed_total);
    t "work ledger sheds before the count cap when occupancy is full"
      (fun () ->
        let g =
          Cache.Guard.create ~max_inflight:8 ~queue_cap:8 ~work_cap:100 ()
        in
        let t1 = ticket (Cache.Guard.try_admit ~work:60 g) in
        Alcotest.(check string) "overflow sheds" "work ledger full"
          (shed_reason (Cache.Guard.try_admit ~work:50 g));
        let t2 = ticket (Cache.Guard.try_admit ~work:40 g) in
        Cache.Guard.release g t1;
        Cache.Guard.release g t2;
        Alcotest.(check int) "ledger accumulated admitted work" 100
          (Cache.Guard.occupancy g).Cache.Guard.ledger_work_total);
    t "a request larger than the whole ledger sheds with retry 0" (fun () ->
        let g = Cache.Guard.create ~work_cap:100 () in
        match Cache.Guard.try_admit ~work:101 g with
        | Cache.Guard.Shed s ->
          Alcotest.(check int) "no point retrying" 0
            s.Cache.Guard.retry_after_ms;
          Alcotest.(check bool) "reason names the capacity" true
            (s.Cache.Guard.reason
            = "request work 101 exceeds ledger capacity 100")
        | Cache.Guard.Admitted _ -> Alcotest.fail "should have shed");
    t "retry-after hint grows with the backlog" (fun () ->
        let g = Cache.Guard.create ~max_inflight:1 ~queue_cap:1 () in
        let t1 = ticket (Cache.Guard.try_admit g) in
        let t2 = ticket (Cache.Guard.try_admit g) in
        (match Cache.Guard.try_admit g with
        | Cache.Guard.Shed s ->
          Alcotest.(check int) "25ms per outstanding request + 1" 75
            s.Cache.Guard.retry_after_ms
        | Cache.Guard.Admitted _ -> Alcotest.fail "should have shed");
        Cache.Guard.release g t1;
        Cache.Guard.release g t2);
    t "drain refuses new work and await_idle returns once released"
      (fun () ->
        let g = Cache.Guard.create () in
        let tk = ticket (Cache.Guard.try_admit g) in
        Cache.Guard.begin_drain g;
        Alcotest.(check string) "draining sheds" "draining"
          (shed_reason (Cache.Guard.try_admit g));
        let done_flag = Atomic.make false in
        let waiter =
          Domain.spawn (fun () ->
              Cache.Guard.await_idle g;
              Atomic.set done_flag true)
        in
        Unix.sleepf 0.02;
        Alcotest.(check bool) "await blocks while work in flight" false
          (Atomic.get done_flag);
        Cache.Guard.release g tk;
        Domain.join waiter;
        Alcotest.(check bool) "await returned after release" true
          (Atomic.get done_flag));
    t "the serve.admit inject site forces deterministic sheds" (fun () ->
        let g = Cache.Guard.create () in
        Resil.Inject.arm [ { Resil.Inject.site = "serve.admit"; at = 2 } ];
        let t1 = ticket (Cache.Guard.try_admit g) in
        Alcotest.(check string) "second admission fires the fault"
          "injected fault: serve.admit"
          (shed_reason (Cache.Guard.try_admit g));
        Resil.Inject.disarm ();
        Cache.Guard.release g t1);
  ]

(* ---- Protocol hardening ---------------------------------------------- *)

let parses s =
  match Cache.Protocol.parse s with
  | _ -> true
  | exception Cache.Protocol.Parse_error _ -> false

let protocol_tests =
  [
    t "duplicate object keys are rejected" (fun () ->
        Alcotest.(check bool) "dup rejected" false
          (parses {|{"op":"ping","op":"stats"}|});
        Alcotest.(check bool) "nested dup rejected" false
          (parses {|{"a":{"x":1,"x":2}}|}));
    t "huge numerics are rejected, not infinitized" (fun () ->
        Alcotest.(check bool) "overflowing exponent rejected" false
          (parses {|{"budget":1e999}|});
        Alcotest.(check bool) "normal floats fine" true
          (parses {|{"deadline":1.5}|}));
    t "invalid UTF-8 in strings is rejected" (fun () ->
        Alcotest.(check bool) "lone continuation byte" false
          (parses "{\"id\":\"\xffoops\"}");
        Alcotest.(check bool) "overlong encoding" false
          (parses "{\"id\":\"\xc0\xaf\"}");
        Alcotest.(check bool) "real multibyte accepted" true
          (parses "{\"id\":\"\xc3\xa9\"}"));
    t "wrong-typed request fields are errors, not ignored" (fun () ->
        match Cache.Protocol.parse_request {|{"op":"compile","budget":"lots"}|}
        with
        | Error m ->
          Alcotest.(check bool) "names the field" true
            (String.length m > 0 && String.sub m 0 6 = "budget")
        | Ok _ -> Alcotest.fail "string budget should not parse");
    t "bounded line reader truncates without losing sync" (fun () ->
        let p = Filename.temp_file "guard_lines" ".txt" in
        Out_channel.with_open_bin p (fun oc ->
            Out_channel.output_string oc
              ("short\n" ^ String.make 1000 'x' ^ "\nafter\n"));
        let ic = open_in_bin p in
        let r1 = Cache.Protocol.read_bounded_line ~max_bytes:64 ic in
        let r2 = Cache.Protocol.read_bounded_line ~max_bytes:64 ic in
        let r3 = Cache.Protocol.read_bounded_line ~max_bytes:64 ic in
        let r4 = Cache.Protocol.read_bounded_line ~max_bytes:64 ic in
        close_in ic;
        Sys.remove p;
        Alcotest.(check bool) "first line read" true
          (r1 = Cache.Protocol.Line "short");
        Alcotest.(check bool) "huge line truncated" true
          (r2 = Cache.Protocol.Truncated);
        Alcotest.(check bool) "stream stays line-synchronized" true
          (r3 = Cache.Protocol.Line "after");
        Alcotest.(check bool) "then EOF" true (r4 = Cache.Protocol.Eof));
  ]

(* ---- Service: breaker and deadline taint ----------------------------- *)

let service_tests =
  [
    t "a crashing compile is contained and eventually poisons its key"
      (fun () ->
        let svc = Cache.Service.create ~breaker_threshold:2 () in
        let g = tiny_graph () in
        let o = Cache.Key.default_options in
        let crash_once at =
          Resil.Inject.arm [ { Resil.Inject.site = "serve.compile"; at } ];
          let r = Cache.Service.get svc g o in
          Resil.Inject.disarm ();
          match r with
          | Error m ->
            Alcotest.(check bool) "crash became a structured error" true
              (String.length m >= 15
              && String.sub m 0 15 = "compile crashed")
          | Ok _ -> Alcotest.fail "injected crash should not succeed"
        in
        crash_once 1;
        Alcotest.(check bool) "one crash does not poison" false
          (Cache.Service.poisoned svc (Cache.Key.digest g o));
        crash_once 1;
        Alcotest.(check bool) "threshold reached, breaker open" true
          (Cache.Service.poisoned svc (Cache.Key.digest g o));
        Alcotest.(check int) "one key poisoned" 1
          (Cache.Service.breaker_open_count svc);
        (match Cache.Service.get svc g o with
        | Error m ->
          Alcotest.(check bool) "refused without compiling" true
            (String.sub m 0 8 = "poisoned")
        | Ok _ -> Alcotest.fail "poisoned key must be refused");
        (* the breaker is per-key: other graphs still compile *)
        let o2 = { o with Cache.Key.coarsening = 2 } in
        match Cache.Service.get svc g o2 with
        | Ok _ -> ()
        | Error m -> Alcotest.fail ("other keys must still work: " ^ m));
    t "a deadline-shaped result is returned but never cached" (fun () ->
        let svc = Cache.Service.create () in
        let g = tiny_graph () in
        let o = Cache.Key.default_options in
        (match Cache.Service.get ~deadline:60.0 svc g o with
        | Ok (_, outcome) ->
          Alcotest.(check string) "compiled" "miss"
            (Cache.Service.outcome_name outcome)
        | Error m -> Alcotest.fail m);
        Alcotest.(check bool) "nothing stored under the key" true
          (Cache.Store.find
             (Cache.Service.store svc)
             (Cache.Key.digest g o)
          = None);
        (* an undeadlined compile of the same key is a genuine miss *)
        match Cache.Service.get svc g o with
        | Ok (_, outcome) ->
          Alcotest.(check string) "recompiled, not served stale" "miss"
            (Cache.Service.outcome_name outcome)
        | Error m -> Alcotest.fail m);
  ]

(* ---- Daemon ---------------------------------------------------------- *)

let compile_req id =
  Printf.sprintf
    {|{"id":%d,"op":"compile","src":"filter A pop 0 push 1 { push(1.0); } filter B pop 1 push 0 { let x = pop(); } pipeline P { add A; add B; }"}|}
    id

let member_str name doc =
  match Obs.Report.member name doc with
  | Some (Obs.Report.Str s) -> Some s
  | _ -> None

let daemon_tests =
  [
    t "an overloaded batch sheds deterministically, tail first" (fun () ->
        (* a burst of 4x the capacity of 2 *)
        let new_guard () = Cache.Guard.create ~max_inflight:1 ~queue_cap:1 () in
        let guard = new_guard () in
        let run guard =
          let d = Cache.Daemon.create ~guard (Cache.Service.create ()) in
          let line =
            "[" ^ String.concat "," (List.init 8 (fun i -> compile_req i)) ^ "]"
          in
          match Cache.Daemon.handle_line d line with
          | `Reply s -> s
          | `Shutdown _ -> Alcotest.fail "unexpected shutdown"
        in
        let statuses reply =
          match Cache.Protocol.parse reply with
          | Obs.Report.Arr docs ->
            List.map
              (fun doc ->
                match member_str "error" doc with
                | Some e -> String.sub e 0 10
                | None -> "ok")
              docs
          | _ -> Alcotest.fail "batch reply must be an array"
        in
        let first = statuses (run guard) in
        Alcotest.(check (list string)) "capacity 2: last 6 shed"
          ([ "ok"; "ok" ] @ List.init 6 (fun _ -> "overloaded"))
          first;
        Alcotest.(check bool) "queue stays within its capacity" true
          ((Cache.Guard.occupancy guard).Cache.Guard.peak_outstanding <= 2);
        Alcotest.(check (list string)) "identical burst, identical sheds"
          first
          (statuses (run (new_guard ()))));
    t "shed responses carry a retry_after_ms hint" (fun () ->
        let svc = Cache.Service.create () in
        let guard = Cache.Guard.create ~max_inflight:1 ~queue_cap:0 () in
        let d = Cache.Daemon.create ~guard svc in
        let line =
          "[" ^ compile_req 1 ^ "," ^ compile_req 2 ^ "]"
        in
        match Cache.Daemon.handle_line d line with
        | `Shutdown _ -> Alcotest.fail "unexpected shutdown"
        | `Reply s -> (
          match Cache.Protocol.parse s with
          | Obs.Report.Arr [ _; shed ] ->
            (match Obs.Report.member "retry_after_ms" shed with
            | Some (Obs.Report.Int ms) ->
              Alcotest.(check int) "one outstanding -> 50ms" 50 ms
            | _ -> Alcotest.fail "shed response lacks retry_after_ms")
          | _ -> Alcotest.fail "expected a two-element reply"));
    t "shutdown drains and reports the final counters" (fun () ->
        let svc = Cache.Service.create () in
        let d = Cache.Daemon.create svc in
        ignore (Cache.Daemon.handle_line d (compile_req 1));
        match Cache.Daemon.handle_line d {|{"id":2,"op":"shutdown"}|} with
        | `Reply _ -> Alcotest.fail "shutdown must end the session"
        | `Shutdown s -> (
          let doc = Cache.Protocol.parse s in
          (match Obs.Report.member "drained" doc with
          | Some (Obs.Report.Bool true) -> ()
          | _ -> Alcotest.fail "shutdown response lacks drained:true");
          (match Obs.Report.member "admitted" doc with
          | Some (Obs.Report.Int 1) -> ()
          | _ -> Alcotest.fail "drain report misses the admitted count");
          Alcotest.(check bool) "guard now refuses work" true
            (match Cache.Daemon.handle_line d (compile_req 3) with
            | `Reply r -> (
              match member_str "error" (Cache.Protocol.parse r) with
              | Some e -> String.length e >= 10 && String.sub e 0 10 = "overloaded"
              | None -> false)
            | `Shutdown _ -> false)));
    t "ping reports version, cache health and ledger occupancy" (fun () ->
        let svc = Cache.Service.create () in
        let d = Cache.Daemon.create svc in
        match Cache.Daemon.handle_line d {|{"id":7,"op":"ping"}|} with
        | `Shutdown _ -> Alcotest.fail "ping must not shut down"
        | `Reply s ->
          let doc = Cache.Protocol.parse s in
          Alcotest.(check (option string)) "version"
            (Some Cache.Key.compiler_version)
            (member_str "version" doc);
          Alcotest.(check bool) "has cache health" true
            (Obs.Report.member "cache" doc <> None);
          Alcotest.(check bool) "has guard occupancy" true
            (Obs.Report.member "guard" doc <> None));
  ]

let suite = guard_tests @ protocol_tests @ service_tests @ daemon_tests
