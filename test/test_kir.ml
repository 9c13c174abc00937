(* The portable kernel IR: lowering determinism, the KIR evaluator
   against the reference interpreter, the structural linter's accept
   and reject paths, and the schedule-local name table — two compiles
   in one process must print byte-identical kernels on every backend
   (the latent gensym-reuse class: a process-global counter would make
   the second compile's names differ). *)

let t name f = Alcotest.test_case name `Quick f

let flatten_src src =
  Streamit.Flatten.flatten (Frontend.Parser.parse_program src)

let compile g =
  match Swp_core.Compile.compile g with
  | Ok c -> c
  | Error m -> Alcotest.failf "compile: %s" m

let compile_bench name =
  match Benchmarks.Registry.find name with
  | None -> Alcotest.failf "unknown benchmark %s" name
  | Some e -> compile (Streamit.Flatten.flatten (e.Benchmarks.Registry.stream ()))

(* Small programs exercising distinct lowering shapes: a plain
   pipeline, a stateful filter, and a splitjoin (splitter/joiner
   nodes + multi-port buffers). *)
let pipeline_src =
  {|
filter A pop 0 push 1 { push(1.0); }
filter B pop 1 push 1 { push(pop() * 2.0 + 0.5); }
filter C pop 1 push 0 { let x = pop(); }
pipeline P { add A; add B; add C; }
|}

let stateful_src =
  {|
filter Src pop 0 push 1 {
  state acc = [0.0];
  acc[0] = acc[0] + 1.0;
  push(acc[0]);
}
filter Dbl pop 1 push 1 { push(pop() * 2.0); }
filter Sink pop 1 push 0 { let x = pop(); }
pipeline P { add Src; add Dbl; add Sink; }
|}

let splitjoin_src =
  {|
filter Src pop 0 push 2 { push(1.0); push(2.0); }
filter Lo pop 1 push 1 { push(pop() + 10.0); }
filter Hi pop 1 push 1 { push(pop() + 20.0); }
filter Sink pop 2 push 0 { let a = pop(); let b = pop(); }
splitjoin SJ { split roundrobin(1, 1); add Lo; add Hi; join roundrobin(1, 1); }
pipeline P { add Src; add SJ; add Sink; }
|}

let small_srcs =
  [ ("pipeline", pipeline_src); ("stateful", stateful_src);
    ("splitjoin", splitjoin_src) ]

let input i = Streamit.Types.VFloat (float_of_int i)

(* ---- lowering ------------------------------------------------------- *)

let lower_tests =
  [
    t "lowering is deterministic" (fun () ->
        List.iter
          (fun (name, src) ->
            let c = compile (flatten_src src) in
            let p1 = Kir.Lower.lower c and p2 = Kir.Lower.lower c in
            Alcotest.(check bool) (name ^ ": equal programs") true (p1 = p2))
          small_srcs);
    t "lowered shape matches the schedule" (fun () ->
        let c = compile (flatten_src pipeline_src) in
        let p = Kir.Lower.lower c in
        Alcotest.(check int) "stages"
          c.Swp_core.Compile.sizing.Swp_core.Buffer_layout.stages
          p.Kir.Ir.stages;
        Alcotest.(check int) "one buffer per edge"
          (List.length c.Swp_core.Compile.graph.Streamit.Graph.edges)
          (Array.length p.Kir.Ir.buffers);
        Alcotest.(check int) "one work fn per node"
          (Array.length c.Swp_core.Compile.graph.Streamit.Graph.nodes)
          (List.length p.Kir.Ir.work_fns);
        (* every fire's channel refs resolve *)
        List.iter
          (fun (case : Kir.Ir.sm_case) ->
            List.iter
              (fun (f : Kir.Ir.fire) ->
                List.iter
                  (fun r ->
                    match r with
                    | Kir.Ir.External -> ()
                    | Kir.Ir.Chan i ->
                      Alcotest.(check bool) "chan in range" true
                        (i >= 0 && i < Array.length p.Kir.Ir.buffers))
                  (f.Kir.Ir.f_ins @ f.Kir.Ir.f_outs))
              case.Kir.Ir.fires)
          p.Kir.Ir.cases);
  ]

(* ---- evaluator ------------------------------------------------------- *)

let eval_tests =
  [
    t "KIR eval agrees with the interpreter" (fun () ->
        List.iter
          (fun (name, src) ->
            let g = flatten_src src in
            let c = compile g in
            let iters = 3 in
            let scale = c.Swp_core.Compile.config.Swp_core.Select.scale in
            let want =
              Streamit.Interp.run_steady_states g ~input
                ~iters:(iters * scale)
            in
            let got = Kir.Eval.run (Kir.Lower.lower c) ~input ~iters in
            Alcotest.(check int)
              (name ^ ": token count")
              (List.length want) (List.length got);
            List.iteri
              (fun i (w, g) ->
                if not (Streamit.Types.equal_value w g) then
                  Alcotest.failf "%s: token %d: interp %s, kir-eval %s" name i
                    (Streamit.Types.string_of_value w)
                    (Streamit.Types.string_of_value g))
              (List.combine want got))
          small_srcs);
  ]

(* ---- linter ---------------------------------------------------------- *)

let corrupt_cases target (p : Kir.Ir.program) (src : string) =
  (* each mutation must be caught by the structural linter; pick the
     position in the comment-stripped text so the dropped character is
     real code, not comment prose the linter rightly ignores *)
  let stripped = Kir.Lint.strip src in
  let drop which find c =
    Option.map
      (fun i ->
        ( Printf.sprintf "dropped %s '%c'" which c,
          String.sub src 0 i ^ " "
          ^ String.sub src (i + 1) (String.length src - i - 1) ))
      (find stripped c)
  in
  let brackets =
    List.concat_map
      (fun c -> [ drop "first" String.index_opt c; drop "last" String.rindex_opt c ])
      [ '{'; '}'; '('; ')'; '['; ']' ]
  in
  (* a line put in front of the whole kernel comes before every
     declaration *)
  let prepend what line = Some (what, line ^ "\n" ^ src) in
  let fn = (List.hd p.Kir.Ir.work_fns).Kir.Ir.w_name in
  let region = Printf.sprintf "region_%d" (fst (List.hd p.Kir.Ir.regions)) in
  let wgsl = target = Kir.Ir.Wgsl in
  List.filter_map Fun.id
    (brackets
    @ [
        prepend "duplicated function"
          (if wgsl then "fn " ^ fn ^ "() {}" else "void " ^ fn ^ "(void);");
        prepend "duplicated region"
          (if wgsl then "fn " ^ region ^ "(it: i32) -> i32 { return 0; }"
           else "int " ^ region ^ "(int it);");
        prepend "use before declaration" ("x = " ^ fn ^ ";");
      ])

(* Barrier placements and the verdict each must get on every target: a
   message prefix after the barrier name, or [Ok] for a uniform guard.
   [B] stands for the kernel's first barrier statement.  The last five
   rows need the header rule (a header runs to the first [{] or [;]
   outside parentheses) and the [else] / [else if] guard inheritance. *)
let inside = "inside tid-dependent control flow"
let under = "under tid-dependent guard"

let placements =
  [
    ("if (tid < 32) { B }", Error inside);
    ("if (tid < 32) B", Error under);
    ("while (tid < 32) { B }", Error inside);
    ("if (tid < 32) { } else { B }", Error inside);
    ("if (x) { B }", Ok ());
    ("if (x) { } else { B }", Ok ());
    ("for (i = 0; i < 4; i++) { B }", Ok ());
    ("if (tid < 32) { } B", Ok ());
    ("{ { B } }", Ok ());
    ("for (i = tid; i < 4; i++) { B }", Error inside);
    ("for (i = 0; i < tid; i++) { B }", Error inside);
    ("if (tid < 32) { } else if (x) { B }", Error inside);
    ("if (tid < 32) { } else B", Error under);
    ("if (tid < 32) { }\telse\t{ B }", Error inside);
  ]

let lint_tests =
  [
    t "linter accepts every emitted backend" (fun () ->
        List.iter
          (fun (name, src) ->
            let p = Kir.Lower.lower (compile (flatten_src src)) in
            List.iter
              (fun target ->
                match Kir.Backend.emit_checked target p with
                | Ok _ -> ()
                | Error e -> Alcotest.failf "%s: %s" name e)
              Kir.Ir.all_targets)
          small_srcs);
    t "linter rejects corrupted kernels" (fun () ->
        let p = Kir.Lower.lower (compile (flatten_src pipeline_src)) in
        List.iter
          (fun target ->
            let src = Kir.Backend.emit target p in
            List.iter
              (fun (what, bad) ->
                match Kir.Lint.check target p bad with
                | Error _ -> ()
                | Ok () ->
                  Alcotest.failf "%s: linter accepted %s"
                    (Kir.Ir.target_name target)
                    what)
              (corrupt_cases target p src))
          Kir.Ir.all_targets);
    t "linter rejects a barrier under a tid guard" (fun () ->
        let p = Kir.Lower.lower (compile (flatten_src pipeline_src)) in
        List.iter
          (fun target ->
            let barrier = (Kir.Lint.dialect target).Kir.Lint.barrier in
            let lines = String.split_on_char '\n' (Kir.Backend.emit target p) in
            let stmt =
              match
                List.find_opt
                  (fun l -> String.starts_with ~prefix:barrier (String.trim l))
                  lines
              with
              | Some l -> String.trim l
              | None -> Alcotest.failf "no %s in kernel" barrier
            in
            List.iter
              (fun (placement, want) ->
                let placed =
                  String.concat stmt (String.split_on_char 'B' placement)
                in
                let replaced = ref false in
                let bad =
                  String.concat "\n"
                    (List.map
                       (fun l ->
                         if (not !replaced) && String.trim l = stmt then begin
                           replaced := true;
                           placed
                         end
                         else l)
                       lines)
                in
                let where =
                  Printf.sprintf "%s: %S" (Kir.Ir.target_name target) placement
                in
                match (want, Kir.Lint.check target p bad) with
                | Ok (), Ok () -> ()
                | Error prefix, Error e
                  when String.starts_with ~prefix:(barrier ^ " " ^ prefix) e ->
                  ()
                | _, Ok () -> Alcotest.failf "%s: linter accepted it" where
                | _, Error e -> Alcotest.failf "%s: %s" where e)
              placements)
          Kir.Ir.all_targets);
  ]

(* ---- schedule-local names (two compiles, one process) ---------------- *)

let name_tests =
  [
    t "two compiles in one process print identical bytes" (fun () ->
        (* a process-global gensym would give the second lowering
           different work-function names; the name table must be
           schedule-local *)
        List.iter
          (fun bench ->
            let emit () =
              Swp_core.Profile.clear_cache ();
              let p = Kir.Lower.lower (compile_bench bench) in
              List.map (fun t -> (t, Kir.Backend.emit t p)) Kir.Ir.all_targets
            in
            let first = emit () in
            let second = emit () in
            List.iter2
              (fun (t1, s1) (_, s2) ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s/%s byte-identical" bench
                     (Kir.Ir.target_name t1))
                  true (String.equal s1 s2))
              first second)
          [ "Bitonic"; "FMRadio" ]);
    t "collision-prone node names stay distinct" (fun () ->
        (* two filters whose names collide after c_ident sanitization
           must get distinct work-function names *)
        let src =
          {|
filter F_1 pop 0 push 1 { push(1.0); }
filter F:1 pop 1 push 1 { push(pop() * 2.0); }
filter Sink pop 1 push 0 { let x = pop(); }
pipeline P { add F_1; add F:1; add Sink; }
|}
        in
        match
          (try Some (compile (flatten_src src)) with _ -> None)
        with
        | None -> () (* frontend may reject the name; nothing to pin *)
        | Some c ->
          let p = Kir.Lower.lower c in
          let names =
            List.map (fun (w : Kir.Ir.work_fn) -> w.Kir.Ir.w_name)
              p.Kir.Ir.work_fns
          in
          Alcotest.(check int) "unique work-fn names"
            (List.length names)
            (List.length (List.sort_uniq compare names)));
  ]

(* ---- codegen instrumentation ------------------------------------------ *)

let obs_tests =
  [
    t "every target emits one codegen span and counts its lines" (fun () ->
        let p = Kir.Lower.lower (compile (flatten_src pipeline_src)) in
        let lines = Obs.Metrics.counter "codegen.lines" in
        List.iter
          (fun target ->
            let name = Kir.Ir.target_name target in
            Obs.Trace.reset ();
            Obs.Trace.enable ();
            let before = Obs.Metrics.value lines in
            let src =
              Fun.protect ~finally:Obs.Trace.disable (fun () ->
                  Kir.Backend.emit target p)
            in
            let newlines =
              String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 src
            in
            Alcotest.(check int) (name ^ " codegen spans") 1
              (List.length (Obs.Trace.find_all "codegen"));
            Alcotest.(check int) (name ^ " codegen.lines")
              newlines
              (Obs.Metrics.value lines - before))
          Kir.Ir.all_targets;
        Obs.Trace.reset ());
  ]

let suite = lower_tests @ eval_tests @ lint_tests @ name_tests @ obs_tests
