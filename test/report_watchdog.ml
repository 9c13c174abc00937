(* Report-regression watchdog: recompile every registry benchmark, build
   its flight-recorder report, and diff it against the checked-in
   baseline (report_baseline/<name>.json).

   Drift policy: the fields that define the compile's outcome — achieved
   II, quality rung, degradation rationale, committed attempt count, and
   the binding lower-bound component — must match the baseline exactly.
   Per-stage work-unit counts may drift within a tolerance (25% relative
   with a small absolute slack) so that benign retunes of the profiler's
   sweep grid don't fail CI, while a stage silently doubling its work
   does.  Run with --update to regenerate the baselines intentionally.

   Baselines are the full compact report JSON (the deterministic,
   timings-free serialization), so the repo also carries a reviewable
   record of what each compile looked like.  They are read back with the
   serve protocol's JSON reader. *)

module J = Obs.Report

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    (fun () -> really_input_string ic (in_channel_length ic))
    ~finally:(fun () -> close_in ic)

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect
    (fun () -> output_string oc text)
    ~finally:(fun () -> close_out oc)

let field doc path =
  match J.path path doc with
  | Some v -> v
  | None ->
    failwith (Printf.sprintf "report field %S missing" (String.concat "." path))

(* Per-stage work: every {"stage":"<name>","work":<n>} object. *)
let stage_works doc =
  match field doc [ "stages" ] with
  | J.Arr stages ->
    List.map
      (fun s ->
        match (field s [ "stage" ], field s [ "work" ]) with
        | J.Str name, J.Int work -> (name, work)
        | _ -> failwith "malformed stage entry")
      stages
  | _ -> failwith "report field \"stages\" not an array"

(* ---- drift checks --------------------------------------------------- *)

type check = { field : string; base : string; fresh : string; ok : bool }

let exact path base fresh =
  let show doc = match field doc path with J.Str s -> s | v -> J.to_string v in
  let b = show base and f = show fresh in
  { field = String.concat "." path; base = b; fresh = f; ok = b = f }

(* 25% relative tolerance with an absolute slack of 16 work units, so
   tiny stages (layout on a 6-filter graph) don't fail on a +4 blip. *)
let within_tolerance base fresh =
  abs (fresh - base) <= max 16 (base * 25 / 100)

let compare_reports base fresh =
  let exact =
    [
      exact [ "ii"; "achieved" ] base fresh;
      exact [ "quality" ] base fresh;
      exact [ "rationale" ] base fresh;
      exact [ "search"; "attempts" ] base fresh;
      exact [ "ii"; "bounds"; "binding" ] base fresh;
    ]
  in
  let base_stages = stage_works base and fresh_stages = stage_works fresh in
  let stage_checks =
    List.map
      (fun (name, b) ->
        match List.assoc_opt name fresh_stages with
        | None ->
          {
            field = "work." ^ name;
            base = string_of_int b;
            fresh = "missing";
            ok = false;
          }
        | Some f ->
          {
            field = "work." ^ name;
            base = string_of_int b;
            fresh = string_of_int f;
            ok = within_tolerance b f;
          })
      base_stages
  in
  let missing_in_base =
    List.filter_map
      (fun (name, f) ->
        if List.mem_assoc name base_stages then None
        else
          Some
            {
              field = "work." ^ name;
              base = "missing";
              fresh = string_of_int f;
              ok = false;
            })
      fresh_stages
  in
  exact @ stage_checks @ missing_in_base

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let update = List.mem "--update" args in
  let dir =
    match List.filter (fun a -> a <> "--update") args with
    | d :: _ -> d
    | [] -> "report_baseline"
  in
  let failures = ref 0 in
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      let name = e.Benchmarks.Registry.name in
      let path = Filename.concat dir (name ^ ".json") in
      Swp_core.Profile.clear_cache ();
      let g = Streamit.Flatten.flatten (e.Benchmarks.Registry.stream ()) in
      match Swp_core.Compile.compile g with
      | Error m ->
        incr failures;
        Printf.printf "%-12s FAIL compile: %s\n" name m
      | Ok c -> (
        let fresh =
          Swp_core.Report.to_doc (Swp_core.Report.assemble ~program:name c)
        in
        if update then begin
          write_file path (J.to_string fresh ^ "\n");
          Printf.printf "%-12s baseline written\n" name
        end
        else
          match read_file path with
          | exception Sys_error _ ->
            incr failures;
            Printf.printf "%-12s FAIL no baseline (run with --update)\n" name
          | base ->
            let checks = compare_reports (Cache.Protocol.parse base) fresh in
            let bad = List.filter (fun ch -> not ch.ok) checks in
            if bad = [] then Printf.printf "%-12s ok\n" name
            else begin
              incr failures;
              Printf.printf "%-12s FAIL report drifted:\n" name;
              List.iter
                (fun ch ->
                  Printf.printf "  %-12s baseline %-10s now %s\n" ch.field
                    ch.base ch.fresh)
                bad
            end))
    Benchmarks.Registry.all;
  (* A baseline for a benchmark that no longer exists would silently
     stop gating anything: flag it. *)
  if not update then
    Array.iter
      (fun file ->
        if Filename.check_suffix file ".json" then begin
          let name = Filename.chop_suffix file ".json" in
          if Benchmarks.Registry.find name = None then begin
            incr failures;
            Printf.printf "%-12s FAIL stale baseline file\n" name
          end
        end)
      (try Sys.readdir dir with Sys_error _ -> [||]);
  if !failures > 0 then begin
    Printf.printf "%d report drift(s)\n" !failures;
    exit 1
  end
  else print_string "no report drift\n"
