(* Observability layer: span tracing, metrics registry, Chrome export,
   and an end-to-end traced compile of FMRadio. *)

open Streamit

let t name f = Alcotest.test_case name `Quick f

(* Deterministic clock: advances 10 us on every read. *)
let install_fake_clock () =
  let n = ref 0.0 in
  Obs.Trace.set_clock (fun () ->
      let v = !n in
      n := v +. 10.0;
      v)

let with_fake_trace f =
  Obs.Trace.reset ();
  install_fake_clock ();
  Obs.Trace.enable ();
  Fun.protect f ~finally:(fun () ->
      Obs.Trace.disable ();
      Obs.Trace.use_default_clock ())

let span_names = List.map (fun (s : Obs.Trace.span) -> s.Obs.Trace.name)

(* Minimal JSON syntax checker, enough for the grammar we emit (objects,
   arrays, strings with escapes, numbers, booleans). *)
let json_parses (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail () = raise Exit in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\n' | '\t' | '\r') ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let lit l =
    let m = String.length l in
    if !pos + m <= n && String.sub s !pos m = l then pos := !pos + m else fail ()
  in
  let str () =
    lit "\"";
    let rec go () =
      if !pos >= n then fail ()
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          pos := !pos + 2;
          go ()
        | _ ->
          incr pos;
          go ()
    in
    go ()
  in
  let number () =
    (match peek () with Some '-' -> incr pos | _ -> ());
    let digits () =
      let start = !pos in
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        incr pos
      done;
      if !pos = start then fail ()
    in
    digits ();
    (match peek () with
    | Some '.' ->
      incr pos;
      digits ()
    | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
      incr pos;
      (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
      digits ()
    | _ -> ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> str ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> lit "true"
    | Some 'f' -> lit "false"
    | Some 'n' -> lit "null"
    | _ -> fail ()
  and obj () =
    lit "{";
    skip_ws ();
    if peek () = Some '}' then incr pos
    else
      let rec members () =
        skip_ws ();
        str ();
        skip_ws ();
        lit ":";
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          members ()
        | Some '}' -> incr pos
        | _ -> fail ()
      in
      members ()
  and arr () =
    lit "[";
    skip_ws ();
    if peek () = Some ']' then incr pos
    else
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          elems ()
        | Some ']' -> incr pos
        | _ -> fail ()
      in
      elems ()
  in
  match
    value ();
    skip_ws ();
    !pos = n
  with
  | ok -> ok
  | exception Exit -> false

let ab_pipeline () =
  let a =
    Kernel.Build.(
      Kernel.make_filter ~name:"A" ~pop:1 ~push:2 [ push pop; push (f 0.0) ])
  in
  let b =
    Kernel.Build.(
      Kernel.make_filter ~name:"B" ~pop:3 ~push:1 [ push (pop +: pop +: pop) ])
  in
  Ast.pipeline "ab" [ Ast.Filter a; Ast.Filter b ]

let trace_tests =
  [
    t "span nesting and ordering" (fun () ->
        let r =
          with_fake_trace (fun () ->
              Obs.Trace.with_span "root" (fun () ->
                  ignore (Obs.Trace.with_span "a" (fun () -> 1));
                  Obs.Trace.add_attr "k" (Obs.Trace.Int 7);
                  Obs.Trace.with_span "b" (fun () -> 2)))
        in
        Alcotest.(check int) "result threads through" 2 r;
        match Obs.Trace.roots () with
        | [ root ] ->
          Alcotest.(check string) "root name" "root" root.Obs.Trace.name;
          Alcotest.(check (list string))
            "children in start order" [ "a"; "b" ]
            (span_names root.Obs.Trace.children);
          Alcotest.(check bool)
            "attr recorded" true
            (List.mem_assoc "k" root.Obs.Trace.attrs);
          List.iter
            (fun (s : Obs.Trace.span) ->
              Alcotest.(check bool)
                "positive duration" true
                (s.Obs.Trace.end_us > s.Obs.Trace.start_us))
            (root :: root.Obs.Trace.children)
        | l -> Alcotest.failf "expected 1 root, got %d" (List.length l));
    t "span closes on exception" (fun () ->
        with_fake_trace (fun () ->
            try
              Obs.Trace.with_span "outer" (fun () ->
                  Obs.Trace.with_span "boom" (fun () -> failwith "x"))
            with Failure _ -> ());
        match Obs.Trace.find_all "boom" with
        | [ s ] ->
          Alcotest.(check bool) "closed" true (s.Obs.Trace.end_us >= s.Obs.Trace.start_us)
        | l -> Alcotest.failf "expected 1 boom span, got %d" (List.length l));
    t "find_all is depth-first" (fun () ->
        with_fake_trace (fun () ->
            Obs.Trace.with_span "p" (fun () ->
                Obs.Trace.with_span "x" (fun () ->
                    Obs.Trace.with_span "x" (fun () -> ())));
            Obs.Trace.with_span "x" (fun () -> ()));
        Alcotest.(check int) "three x spans" 3
          (List.length (Obs.Trace.find_all "x")));
    t "disabled sink records nothing and returns the value" (fun () ->
        Obs.Trace.reset ();
        Obs.Trace.disable ();
        let r = Obs.Trace.with_span "n" (fun () -> 41 + 1) in
        Obs.Trace.add_attr "ignored" (Obs.Trace.Int 0);
        Alcotest.(check int) "value" 42 r;
        Alcotest.(check int) "no roots" 0 (List.length (Obs.Trace.roots ())));
    t "chrome json golden (fake clock)" (fun () ->
        with_fake_trace (fun () ->
            ignore
              (Obs.Trace.with_span "compile"
                 ~attrs:[ ("scheme", Obs.Trace.Str "SWP") ]
                 (fun () ->
                   Obs.Trace.with_span "profile" (fun () ->
                       Obs.Trace.add_attr "cache" (Obs.Trace.Str "miss")))));
        let golden =
          "{\"traceEvents\":[{\"name\":\"compile\",\"cat\":\"pipeline\",\"ph\":\"X\",\"ts\":0.0,\"dur\":30.0,\"pid\":1,\"tid\":1,\"args\":{\"scheme\":\"SWP\"}},{\"name\":\"profile\",\"cat\":\"pipeline\",\"ph\":\"X\",\"ts\":10.0,\"dur\":10.0,\"pid\":1,\"tid\":1,\"args\":{\"cache\":\"miss\"}}],\"displayTimeUnit\":\"ms\"}"
        in
        Alcotest.(check string) "golden" golden (Obs.Trace.to_chrome_json ()));
    t "chrome json escapes strings" (fun () ->
        with_fake_trace (fun () ->
            Obs.Trace.with_span "q"
              ~attrs:[ ("s", Obs.Trace.Str "a\"b\\c\nd") ]
              (fun () -> ()));
        let json = Obs.Trace.to_chrome_json () in
        Alcotest.(check bool) "parses" true (json_parses json));
    t "two-filter pipeline trace (scrubbed)" (fun () ->
        (* Full compile of the multirate ab pipeline under the fake
           clock; the span-name sequence is the deterministic part of
           the trace (timestamps scrubbed by construction). *)
        with_fake_trace (fun () ->
            let g = Flatten.flatten (ab_pipeline ()) in
            match Swp_core.Compile.compile ~num_sms:2 g with
            | Error m -> Alcotest.failf "compile failed: %s" m
            | Ok _ -> ());
        let json = Obs.Trace.to_chrome_json () in
        Alcotest.(check bool) "json parses" true (json_parses json);
        Alcotest.(check (list string))
          "top-level spans" [ "flatten"; "compile" ]
          (span_names (Obs.Trace.roots ()));
        let compile_children =
          match Obs.Trace.roots () with
          | [ _; c ] -> span_names c.Obs.Trace.children
          | _ -> []
        in
        Alcotest.(check (list string))
          "compile stages"
          [ "sdf.solve"; "profile"; "select"; "ii_search"; "buffer_layout" ]
          compile_children;
        Alcotest.(check bool)
          "at least one attempt" true
          (Obs.Trace.find_all "ii_search.attempt" <> []));
  ]

let metrics_tests =
  [
    t "counter get-or-create and reset in place" (fun () ->
        Obs.Metrics.reset ();
        let c = Obs.Metrics.counter "test.counter" in
        Obs.Metrics.inc c;
        Obs.Metrics.add c 4;
        Alcotest.(check int) "inc+add" 5 (Obs.Metrics.value c);
        let c2 = Obs.Metrics.counter "test.counter" in
        Obs.Metrics.inc c2;
        Alcotest.(check int) "same instrument" 6 (Obs.Metrics.value c);
        Obs.Metrics.reset ();
        Alcotest.(check int) "reset zeroes" 0 (Obs.Metrics.value c);
        Obs.Metrics.inc c;
        Alcotest.(check int) "handle stays live" 1 (Obs.Metrics.value c));
    t "labels distinguish instruments, order-insensitively" (fun () ->
        Obs.Metrics.reset ();
        let a = Obs.Metrics.counter ~labels:[ ("k", "v") ] "test.lbl" in
        let b = Obs.Metrics.counter ~labels:[ ("k", "w") ] "test.lbl" in
        Obs.Metrics.inc a;
        Alcotest.(check int) "b untouched" 0 (Obs.Metrics.value b);
        let a2 =
          Obs.Metrics.counter ~labels:[ ("x", "1"); ("k", "v") ] "test.lbl2"
        in
        let a3 =
          Obs.Metrics.counter ~labels:[ ("k", "v"); ("x", "1") ] "test.lbl2"
        in
        Obs.Metrics.inc a2;
        Alcotest.(check int) "sorted key" 1 (Obs.Metrics.value a3));
    t "gauge and histogram semantics" (fun () ->
        Obs.Metrics.reset ();
        let g = Obs.Metrics.gauge "test.gauge" in
        Obs.Metrics.set g 2.5;
        Alcotest.(check (float 1e-9)) "gauge" 2.5 (Obs.Metrics.gauge_value g);
        let h = Obs.Metrics.histogram "test.hist" in
        Alcotest.(check bool) "empty min is nan" true
          (Float.is_nan (Obs.Metrics.hist_min h));
        List.iter (Obs.Metrics.observe h) [ 3.0; 1.0; 2.0 ];
        Alcotest.(check int) "count" 3 (Obs.Metrics.hist_count h);
        Alcotest.(check (float 1e-9)) "sum" 6.0 (Obs.Metrics.hist_sum h);
        Alcotest.(check (float 1e-9)) "min" 1.0 (Obs.Metrics.hist_min h);
        Alcotest.(check (float 1e-9)) "max" 3.0 (Obs.Metrics.hist_max h));
    t "snapshot and json export" (fun () ->
        Obs.Metrics.reset ();
        let c = Obs.Metrics.counter "test.snap" in
        Obs.Metrics.add c 3;
        let item =
          List.find
            (fun (i : Obs.Metrics.snapshot_item) -> i.name = "test.snap")
            (Obs.Metrics.snapshot ())
        in
        (match item.kind with
        | `Counter v -> Alcotest.(check int) "snapshot value" 3 v
        | _ -> Alcotest.fail "expected a counter");
        let json = Obs.Metrics.to_json () in
        Alcotest.(check bool) "json parses" true (json_parses json);
        let contains hay needle =
          let nl = String.length needle and hl = String.length hay in
          let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "json mentions the counter" true
          (contains json "test.snap"));
  ]

(* ---- registry edge cases and the OpenMetrics exposition ------------- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let export_tests =
  [
    t "empty histogram: nan extrema, exporters stay well-formed" (fun () ->
        Obs.Metrics.reset ();
        let h = Obs.Metrics.histogram "edge.empty_hist" in
        ignore h;
        let item =
          List.find
            (fun (i : Obs.Metrics.snapshot_item) -> i.name = "edge.empty_hist")
            (Obs.Metrics.snapshot ())
        in
        (match item.kind with
        | `Histogram (count, sum, min_v, max_v) ->
          Alcotest.(check int) "count 0" 0 count;
          Alcotest.(check (float 1e-9)) "sum 0" 0.0 sum;
          Alcotest.(check bool) "min nan" true (Float.is_nan min_v);
          Alcotest.(check bool) "max nan" true (Float.is_nan max_v)
        | _ -> Alcotest.fail "expected a histogram");
        Alcotest.(check bool) "json still parses" true
          (json_parses (Obs.Metrics.to_json ()));
        let om = Obs.Export.to_openmetrics () in
        Alcotest.(check bool) "count sample present" true
          (contains om "edge_empty_hist_count 0\n");
        (* extrema gauges must not be exported for an empty histogram *)
        Alcotest.(check bool) "no _min for empty histogram" false
          (contains om "edge_empty_hist_min");
        Alcotest.(check bool) "no _max for empty histogram" false
          (contains om "edge_empty_hist_max"));
    t "counter overflow wraps without raising" (fun () ->
        Obs.Metrics.reset ();
        let c = Obs.Metrics.counter "edge.overflow" in
        Obs.Metrics.add c max_int;
        Obs.Metrics.inc c;
        (* native int overflow wraps (two's complement); the registry
           must neither raise nor lose the handle *)
        Alcotest.(check int) "wrapped to min_int" min_int
          (Obs.Metrics.value c);
        Obs.Metrics.add c 1;
        Alcotest.(check int) "still accumulating" (min_int + 1)
          (Obs.Metrics.value c);
        Alcotest.(check bool) "openmetrics renders the wrapped value" true
          (contains
             (Obs.Export.to_openmetrics ())
             (Printf.sprintf "edge_overflow_total %d\n" (min_int + 1))));
    t "openmetrics: name sanitization and label escaping" (fun () ->
        Obs.Metrics.reset ();
        let c =
          Obs.Metrics.counter
            ~labels:[ ("path", "a\"b\\c\nd") ]
            "edge.dots.and-dashes"
        in
        Obs.Metrics.inc c;
        let om = Obs.Export.to_openmetrics () in
        Alcotest.(check bool) "dots and dashes become underscores" true
          (contains om "edge_dots_and_dashes_total");
        Alcotest.(check bool) "label value escaped per the ABNF" true
          (contains om "{path=\"a\\\"b\\\\c\\nd\"} 1\n");
        Alcotest.(check string) "escape_label round trip" "a\\\"b\\\\c\\nd"
          (Obs.Export.escape_label "a\"b\\c\nd"));
    t "openmetrics: families typed once, EOF-terminated" (fun () ->
        Obs.Metrics.reset ();
        let a = Obs.Metrics.counter ~labels:[ ("k", "1") ] "edge.family" in
        let b = Obs.Metrics.counter ~labels:[ ("k", "2") ] "edge.family" in
        Obs.Metrics.inc a;
        Obs.Metrics.add b 2;
        let h = Obs.Metrics.histogram "edge.family_hist" in
        Obs.Metrics.observe h 4.5;
        let g = Obs.Metrics.gauge "edge.family_gauge" in
        Obs.Metrics.set g Float.infinity;
        let om = Obs.Export.to_openmetrics () in
        let lines = String.split_on_char '\n' (String.trim om) in
        Alcotest.(check string) "terminator" "# EOF"
          (List.nth lines (List.length lines - 1));
        let type_lines =
          List.filter (fun l -> contains l "# TYPE edge_family ") lines
        in
        Alcotest.(check int) "one TYPE line for the two-cell family" 1
          (List.length type_lines);
        Alcotest.(check bool) "both cells exported" true
          (contains om "edge_family_total{k=\"1\"} 1\n"
          && contains om "edge_family_total{k=\"2\"} 2\n");
        Alcotest.(check bool) "histogram count/sum/extrema" true
          (contains om "edge_family_hist_count 1\n"
          && contains om "edge_family_hist_sum 4.5\n"
          && contains om "edge_family_hist_min 4.5\n"
          && contains om "edge_family_hist_max 4.5\n");
        Alcotest.(check bool) "infinite gauge renders +Inf" true
          (contains om "edge_family_gauge +Inf\n");
        (* every non-comment line is "name[{labels}] value" *)
        List.iter
          (fun l ->
            if l <> "" && l.[0] <> '#' then
              match String.rindex_opt l ' ' with
              | None -> Alcotest.failf "malformed sample line: %s" l
              | Some i -> (
                let v = String.sub l (i + 1) (String.length l - i - 1) in
                match v with
                | "NaN" | "+Inf" | "-Inf" -> ()
                | _ ->
                  if Float.of_string_opt v = None then
                    Alcotest.failf "unparsable sample value in: %s" l))
          lines);
  ]

(* End-to-end smoke: compile FMRadio with tracing on; the trace must
   parse as JSON and contain every pipeline-stage span. *)
let smoke_tests =
  [
    t "FMRadio traced compile has all stage spans" (fun () ->
        Obs.Trace.reset ();
        Obs.Trace.enable ();
        Fun.protect ~finally:Obs.Trace.disable (fun () ->
            let e = Option.get (Benchmarks.Registry.find "fm_radio") in
            let g =
              Flatten.flatten
                (Obs.Trace.with_span "parse" e.Benchmarks.Registry.stream)
            in
            match Swp_core.Compile.compile g with
            | Error m -> Alcotest.failf "compile failed: %s" m
            | Ok c ->
              ignore (Kir.Backend.emit_compiled Kir.Ir.Cuda c);
              ignore (Swp_core.Executor.time_swp c));
        let json = Obs.Trace.to_chrome_json () in
        Alcotest.(check bool) "trace parses" true (json_parses json);
        List.iter
          (fun stage ->
            Alcotest.(check bool)
              (stage ^ " span present") true
              (Obs.Trace.find_all stage <> []))
          [
            "parse"; "flatten"; "profile"; "select"; "ii_search";
            "ii_search.attempt"; "buffer_layout"; "codegen"; "execute";
          ]);
  ]

(* ---- domain-safety -------------------------------------------------
   Hammer the shared registry, the atomic instrument cells and the
   per-domain trace sinks from several domains at once.  The trace test
   is the regression for the old global span stack (a plain [ref]):
   with a shared stack, concurrent [with_span] calls interleave their
   pushes and pops, so roots steal other domains' children and the
   exact counts below cannot hold. *)

let hammer ~domains f =
  let ds = List.init domains (fun i -> Domain.spawn (fun () -> f i)) in
  List.iter Domain.join ds

let concurrency_tests =
  [
    t "metrics: exact counts from 4 domains" (fun () ->
        Obs.Metrics.reset ();
        let c = Obs.Metrics.counter "conc.counter" in
        let h = Obs.Metrics.histogram "conc.hist" in
        hammer ~domains:4 (fun d ->
            for _ = 1 to 5_000 do
              Obs.Metrics.inc c
            done;
            for _ = 1 to 1_000 do
              Obs.Metrics.add c 3
            done;
            for i = 1 to 2_000 do
              Obs.Metrics.observe h (float_of_int (i + d))
            done);
        Alcotest.(check int) "counter exact" (4 * (5_000 + 3_000))
          (Obs.Metrics.value c);
        Alcotest.(check int) "histogram count exact" 8_000
          (Obs.Metrics.hist_count h);
        let expected_sum =
          let s = ref 0.0 in
          for d = 0 to 3 do
            for i = 1 to 2_000 do
              s := !s +. float_of_int (i + d)
            done
          done;
          !s
        in
        Alcotest.(check (float 1e-6)) "histogram sum exact" expected_sum
          (Obs.Metrics.hist_sum h);
        Alcotest.(check bool) "json snapshot parses" true
          (json_parses (Obs.Metrics.to_json ())));
    t "metrics: get-or-create races yield one instrument" (fun () ->
        Obs.Metrics.reset ();
        hammer ~domains:4 (fun _ ->
            for _ = 1 to 1_000 do
              Obs.Metrics.inc (Obs.Metrics.counter "conc.shared")
            done);
        Alcotest.(check int) "all increments on one cell" 4_000
          (Obs.Metrics.value (Obs.Metrics.counter "conc.shared")));
    t "trace: spans stay well-nested across 4 domains" (fun () ->
        Obs.Trace.reset ();
        Obs.Trace.enable ();
        Fun.protect ~finally:Obs.Trace.disable (fun () ->
            hammer ~domains:4 (fun d ->
                for i = 1 to 100 do
                  Obs.Trace.with_span "worker"
                    ~attrs:[ ("domain", Obs.Trace.Int d) ]
                    (fun () ->
                      Obs.Trace.with_span "inner" (fun () ->
                          Obs.Trace.add_attr "i" (Obs.Trace.Int i)))
                done));
        let roots = Obs.Trace.roots () in
        Alcotest.(check int) "one root per iteration" 400 (List.length roots);
        List.iter
          (fun (s : Obs.Trace.span) ->
            Alcotest.(check string) "root is a worker span" "worker"
              s.Obs.Trace.name;
            Alcotest.(check (list string))
              "exactly its own child" [ "inner" ]
              (span_names s.Obs.Trace.children))
          roots;
        Alcotest.(check int) "inner spans all attributed" 400
          (List.length (Obs.Trace.find_all "inner"));
        Alcotest.(check bool) "chrome export parses" true
          (json_parses (Obs.Trace.to_chrome_json ()));
        Obs.Trace.reset ());
    t "trace: merge keeps main's and workers' roots apart" (fun () ->
        Obs.Trace.reset ();
        Obs.Trace.enable ();
        Fun.protect ~finally:Obs.Trace.disable (fun () ->
            Obs.Trace.with_span "before" (fun () -> ());
            hammer ~domains:2 (fun _ ->
                for _ = 1 to 50 do
                  Obs.Trace.with_span "side" (fun () -> ())
                done);
            Obs.Trace.with_span "after" (fun () -> ()));
        let roots = Obs.Trace.roots () in
        Alcotest.(check int) "all roots survive the merge" 102
          (List.length roots);
        (* completion-sequence ordering puts main's bracketing spans at
           the very ends of the merged stream *)
        Alcotest.(check string) "first root" "before"
          (List.hd roots).Obs.Trace.name;
        Alcotest.(check string) "last root" "after"
          (List.nth roots 101).Obs.Trace.name;
        Obs.Trace.reset ());
  ]

(* ---- Canon: the one float formatter behind every exporter ---------- *)

(* export.ml (OpenMetrics), report.ml (JSON documents) and metrics.ml
   (snapshot JSON) each used to carry their own formatter; they
   diverged on -0.0, non-finite values and integers >= 1e15.  All
   three now delegate to Obs.Canon, and on finite floats they must
   agree to the byte. *)

let interesting_floats =
  [
    0.0; -0.0; 1.0; -1.0; 0.5; -0.5; 1e-3; 0.1; 3.14159265358979312;
    1e15; -1e15; 1e15 +. 2.0; 1.7976931348623157e308; 4.9e-324;
    1234567890.0; 2.0000000000000004;
  ]

let canon_gen =
  QCheck.Gen.(
    oneof
      [
        oneofl interesting_floats;
        float;
        map (fun (m, e) -> ldexp m e) (pair (float_bound_inclusive 1.0) (int_range (-60) 60));
      ])

let canon_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"all former call sites agree and round-trip"
       ~count:500
       (QCheck.make canon_gen)
       (fun f ->
         QCheck.assume (Float.is_finite f);
         let s = Obs.Canon.finite f in
         (* the three exporters agree with finite and with each other *)
         Obs.Export.float_str f = s
         && Obs.Report.num f = s
         && Obs.Metrics.json_num f = s
         && Obs.Canon.to_string f = s
         (* and the rendering round-trips to the same bits *)
         && Int64.bits_of_float (float_of_string s) = Int64.bits_of_float f))

let canon_tests =
  [
    canon_prop;
    t "canonical fixed points" (fun () ->
        List.iter
          (fun (f, want) ->
            Alcotest.(check string)
              (Printf.sprintf "canon %h" f)
              want (Obs.Canon.finite f))
          [
            (0.0, "0.0");
            (-0.0, "-0.0");
            (42.0, "42.0");
            (0.5, "0.5");
            (0.1, "0.1");
            (1e15, "1e+15");
            (3.14159265358979312, "3.141592653589793");
            (2.0000000000000004, "2.0000000000000004");
          ]);
    t "non-finite values per target format" (fun () ->
        Alcotest.(check string) "json nan" "null" (Obs.Report.num Float.nan);
        Alcotest.(check string) "json inf" "null"
          (Obs.Report.num Float.infinity);
        Alcotest.(check string) "metrics inf" "null"
          (Obs.Metrics.json_num Float.neg_infinity);
        Alcotest.(check string) "openmetrics nan" "NaN"
          (Obs.Export.float_str Float.nan);
        Alcotest.(check string) "openmetrics +inf" "+Inf"
          (Obs.Export.float_str Float.infinity);
        Alcotest.(check string) "openmetrics -inf" "-Inf"
          (Obs.Export.float_str Float.neg_infinity);
        Alcotest.(check string) "plain text" "inf"
          (Obs.Canon.to_string Float.infinity);
        Alcotest.(check string) "plain text nan" "nan"
          (Obs.Canon.to_string Float.nan));
  ]

let suite =
  trace_tests @ metrics_tests @ export_tests @ concurrency_tests
  @ smoke_tests @ canon_tests
