(* Building a task-parallel program with splitters and joiners, then
   exploring how the scheduler maps it: a polyphase "vocoder-lite" with
   four parallel band processors, inspected at every compilation stage —
   including the generated CUDA source.

   Run with:  dune exec examples/custom_dsl.exe *)

open Streamit

let band b =
  (* each band applies a different gain and a 2-tap smoother *)
  let gain = 0.5 +. (0.25 *. float_of_int b) in
  Ast.pipeline
    (Printf.sprintf "band%d" b)
    [
      Ast.Filter
        Kernel.Build.(
          Kernel.make_filter
            ~name:(Printf.sprintf "Gain%d" b)
            ~pop:1 ~push:1
            [ push (pop *: f gain) ]);
      Ast.Filter
        Kernel.Build.(
          Kernel.make_filter
            ~name:(Printf.sprintf "Smooth%d" b)
            ~pop:1 ~push:1 ~peek:2
            [ push ((peek (i 0) +: peek (i 1)) *: f 0.5); let_ "_d" pop ]);
    ]

let program =
  Ast.pipeline "vocoder_lite"
    [
      (* deal one sample to each band in turn *)
      Ast.round_robin_sj "analysis"
        [ 1; 1; 1; 1 ]
        (List.init 4 band)
        [ 1; 1; 1; 1 ];
      (* recombine with a windowed sum *)
      Ast.Filter
        Kernel.Build.(
          Kernel.make_filter ~name:"Mix" ~pop:4 ~push:1
            [
              let_ "acc" (f 0.0);
              for_ "j" (i 0) (i 4) [ set "acc" (v "acc" +: pop) ];
              push (v "acc" /: f 4.0);
            ]);
    ]

let () =
  (match Ast.validate program with
  | Ok () -> ()
  | Error m -> failwith m);
  let graph = Flatten.flatten program in
  Format.printf "%a@.@." Graph.pp graph;
  (* run it *)
  let out =
    Interp.run_steady_states graph
      ~input:(fun i -> Types.VFloat (sin (0.2 *. float_of_int i)))
      ~iters:6
  in
  Format.printf "mixed output: %s@.@."
    (String.concat " "
       (List.map (fun v -> Printf.sprintf "%.3f" (Types.to_float v)) out));
  (* compile and show the scheduling internals *)
  match Swp_core.Compile.compile ~num_sms:4 graph with
  | Error m -> Format.printf "compile failed: %s@." m
  | Ok c ->
    let cfg = c.Swp_core.Compile.config in
    Format.printf "%a@.@." (Swp_core.Select.pp_config graph) cfg;
    Format.printf "dependences: %d, ResMII=%d RecMII=%d@."
      (List.length (Swp_core.Instances.deps graph cfg))
      (Swp_core.Mii.res_mii cfg ~num_sms:4)
      (Swp_core.Mii.rec_mii graph cfg);
    Format.printf "%a@.@." (Swp_core.Swp_schedule.pp graph) c.Swp_core.Compile.schedule;
    (* a peek at the generated CUDA *)
    let cuda = Kir.Backend.emit_compiled Kir.Ir.Cuda c in
    let preview =
      String.concat "\n"
        (List.filteri (fun i _ -> i < 25) (String.split_on_char '\n' cuda))
    in
    Format.printf "generated CUDA (first 25 lines):@.%s@.  ...@." preview
