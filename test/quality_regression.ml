(* Quality-regression gate: compile every registry benchmark at the
   unlimited budget and compare the achieved II against the checked-in
   per-benchmark baseline (quality_baseline.json).  Any achieved II
   strictly above its baseline fails the run; an II strictly below is
   reported so the baseline can be ratcheted down.  Exit status 0 iff no
   benchmark regressed.

   The baseline file is a flat {"baseline": {"Name": ii, ...}} object,
   read with the serve protocol's JSON reader. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    (fun () -> really_input_string ic (in_channel_length ic))
    ~finally:(fun () -> close_in ic)

let parse_baseline text =
  match Obs.Report.member "baseline" (Cache.Protocol.parse text) with
  | Some (Obs.Report.Obj pairs) ->
    List.map
      (function
        | name, Obs.Report.Int ii -> (name, ii)
        | name, _ -> failwith ("quality baseline: " ^ name ^ " is not an int"))
      pairs
  | _ -> failwith "quality baseline: no \"baseline\" object"

let () =
  let baseline_path =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "quality_baseline.json"
  in
  let baseline = parse_baseline (read_file baseline_path) in
  let failures = ref 0 in
  Printf.printf "%-12s %10s %10s  %s\n" "benchmark" "baseline" "achieved" "";
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      let name = e.Benchmarks.Registry.name in
      let g = Streamit.Flatten.flatten (e.Benchmarks.Registry.stream ()) in
      match Swp_core.Compile.compile g with
      | Error m ->
        incr failures;
        Printf.printf "%-12s %10s %10s  FAIL compile: %s\n" name "-" "-" m
      | Ok c -> (
        let achieved =
          c.Swp_core.Compile.search_stats.Swp_core.Ii_search.achieved_ii
        in
        match List.assoc_opt name baseline with
        | None ->
          incr failures;
          Printf.printf "%-12s %10s %10d  FAIL no baseline entry\n" name "-"
            achieved
        | Some base when achieved > base ->
          incr failures;
          Printf.printf "%-12s %10d %10d  FAIL regressed by %d\n" name base
            achieved (achieved - base)
        | Some base when achieved < base ->
          Printf.printf
            "%-12s %10d %10d  ok (improved by %d — ratchet the baseline)\n"
            name base achieved (base - achieved)
        | Some base -> Printf.printf "%-12s %10d %10d  ok\n" name base achieved))
    Benchmarks.Registry.all;
  (* Stale baseline entries for benchmarks that no longer exist are also
     an error: they would silently stop gating anything. *)
  List.iter
    (fun (name, _) ->
      if Benchmarks.Registry.find name = None then begin
        incr failures;
        Printf.printf "%-12s %10s %10s  FAIL stale baseline entry\n" name "?"
          "-"
      end)
    baseline;
  if !failures > 0 then begin
    Printf.printf "%d quality regression(s)\n" !failures;
    exit 1
  end
  else print_string "no quality regressions\n"
