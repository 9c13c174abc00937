(* Tests for CUDA source generation: structural properties of the
   emitted C (golden-style substring checks, balanced braces, index-map
   forms) rather than compiling with a real nvcc. *)

open Streamit

let t name f = Alcotest.test_case name `Quick f

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let balanced_braces s =
  let depth = ref 0 and ok = ref true in
  String.iter
    (fun c ->
      if c = '{' then incr depth
      else if c = '}' then begin
        decr depth;
        if !depth < 0 then ok := false
      end)
    s;
  !ok && !depth = 0

let sample_filter =
  Kernel.Build.(
    Kernel.make_filter ~name:"Scale" ~pop:2 ~push:2
      ~tables:[ ("coef", [| Types.VFloat 0.5; Types.VFloat 2.0 |]) ]
      [
        let_ "a" pop;
        let_ "b" pop;
        push ((v "a" *: tbl "coef" (i 0)) +: (v "b" *: tbl "coef" (i 1)));
        push (v "a" -: v "b");
      ])

let emit_tests =
  [
    t "identifier mangling" (fun () ->
        Alcotest.(check string) "spaces" "split_sj_1" (Kir.Ir.c_ident "split sj 1");
        Alcotest.(check string) "leading digit" "_1x" (Kir.Ir.c_ident "1x");
        Alcotest.(check string) "empty" "_anon" (Kir.Ir.c_ident ""));
    t "device function with coalesced indices (eq. 10/11)" (fun () ->
        let c = Kir.Print_cfam.fn_of_filter Kir.Ir.Cuda sample_filter in
        Alcotest.(check bool) "braces" true (balanced_braces c);
        Alcotest.(check bool) "device fn" true
          (contains c "static __device__ void work_Scale");
        Alcotest.(check bool) "constant table" true
          (contains c "__constant__ float Scale_coef[2]");
        (* coalesced read index: 128*n + (tid/128)*128*rate + tid%128 *)
        Alcotest.(check bool) "shuffled index" true
          (contains c "(128 * (_pop) + (tid / 128) * 128 * 2 + (tid % 128))"));
    t "natural indices for the non-coalesced baseline" (fun () ->
        let c =
          Kir.Print_cfam.fn_of_filter ~style:Kir.Ir.Natural Kir.Ir.Cuda
            sample_filter
        in
        Alcotest.(check bool) "natural" true (contains c "(tid * 2 + (_pop))"));
    t "pops hoisted in evaluation order" (fun () ->
        let f =
          Kernel.Build.(
            Kernel.make_filter ~name:"Sum3" ~pop:3 ~push:1
              [ push (pop +: pop +: pop) ])
        in
        let c = Kir.Print_cfam.fn_of_filter Kir.Ir.Cuda f in
        (* three temporaries, each bumping _pop before the push *)
        Alcotest.(check bool) "t1" true (contains c "_t1");
        Alcotest.(check bool) "t3" true (contains c "_t3");
        Alcotest.(check bool) "push after" true
          (contains c "out[") );
    t "pop inside conditional arm rejected" (fun () ->
        let f =
          Kernel.make_filter ~name:"CondPop" ~pop:1 ~push:1
            [
              Kernel.Push
                (Kernel.Cond (Kernel.Const (Types.VInt 1), Kernel.Pop, Kernel.Pop));
            ]
        in
        (try
           ignore (Kir.Print_cfam.fn_of_filter Kir.Ir.Cuda f);
           Alcotest.fail "expected Unsupported"
         with Kir.Ir.Unsupported _ -> ()));
    t "loops and conditionals lower structurally" (fun () ->
        let f =
          Kernel.Build.(
            Kernel.make_filter ~name:"Loopy" ~pop:4 ~push:4
              [
                arr "w" 4;
                for_ "j" (i 0) (i 4) [ seti "w" (v "j") pop ];
                for_ "j" (i 0) (i 4)
                  [
                    if_ (geti "w" (v "j") >: f 0.0)
                      [ push (geti "w" (v "j")) ]
                      [ push (neg (geti "w" (v "j"))) ];
                  ];
              ])
        in
        let c = Kir.Print_cfam.fn_of_filter Kir.Ir.Cuda f in
        Alcotest.(check bool) "for" true (contains c "for (int j = 0; j < 4; j++)");
        Alcotest.(check bool) "if/else" true (contains c "} else {");
        Alcotest.(check bool) "array decl" true (contains c "float w[4]");
        Alcotest.(check bool) "braces" true (balanced_braces c));
    t "integer filters use int buffers" (fun () ->
        let f =
          Kernel.Build.(
            Kernel.make_filter ~name:"IntOp" ~pop:1 ~push:1 ~in_ty:Types.TInt
              ~out_ty:Types.TInt
              [ push ((pop <<: i 2) |: i 1) ])
        in
        let c = Kir.Print_cfam.fn_of_filter Kir.Ir.Cuda f in
        Alcotest.(check bool) "signature" true
          (contains c "(const int* in, int* out, int tid)"));
  ]

let kernel_tests =
  [
    t "splitter/joiner lowering rates check" (fun () ->
        let dup = Kir.Lower.splitter_filter Ast.Duplicate 3 in
        Alcotest.(check (result unit string)) "dup" (Ok ()) (Kernel.check_filter dup);
        Alcotest.(check int) "push" 3 dup.Kernel.push_rate;
        let rr = Kir.Lower.splitter_filter (Ast.Round_robin [ 2; 3 ]) 2 in
        Alcotest.(check int) "rr pop" 5 rr.Kernel.pop_rate;
        let j = Kir.Lower.joiner_filter [ 1; 4 ] in
        Alcotest.(check int) "join pop" 5 j.Kernel.pop_rate);
    t "whole-program generation for a benchmark" (fun () ->
        let g = Flatten.flatten (Benchmarks.Bitonic.stream ()) in
        let c = Result.get_ok (Swp_core.Compile.compile g) in
        let src = Kir.Backend.emit_compiled Kir.Ir.Cuda c in
        Alcotest.(check bool) "braces" true (balanced_braces src);
        Alcotest.(check bool) "kernel" true
          (contains src "__global__ void swp_kernel");
        Alcotest.(check bool) "switch on SM (Sec. IV-C)" true
          (contains src "switch (sm)");
        Alcotest.(check bool) "staging predicates" true
          (contains src "stage_on");
        Alcotest.(check bool) "launch config" true (contains src "swp_kernel<<<"));
    t "profile driver generation (Fig. 6)" (fun () ->
        let f = sample_filter in
        let src = Kir.Print_cfam.profile_driver f ~numfirings:26880 in
        Alcotest.(check bool) "events" true (contains src "cudaEventElapsedTime");
        Alcotest.(check bool) "iterates" true (contains src "26880 / blockDim.x");
        Alcotest.(check bool) "braces" true (balanced_braces src));
    t "every scheduled instance appears in the kernel" (fun () ->
        let g = Flatten.flatten (Benchmarks.Dct.stream ()) in
        let c = Result.get_ok (Swp_core.Compile.compile g) in
        let src = Kir.Backend.emit_compiled Kir.Ir.Cuda c in
        List.iter
          (fun (e : Swp_core.Swp_schedule.entry) ->
            let marker =
              Printf.sprintf "k=%d) o=%d f=%d" e.inst.Swp_core.Instances.k e.o e.f
            in
            if not (contains src marker) then
              Alcotest.failf "instance marker missing: %s" marker)
          (List.filteri (fun i _ -> i < 5)
             c.Swp_core.Compile.schedule.Swp_core.Swp_schedule.entries));
  ]

let suite = emit_tests @ kernel_tests
