(* perf.exe compare DIR-A DIR-B: parent runs in A, change runs in B.

   Each directory holds <workload>.ndjson, one result line per run, the
   i-th line of A paired with the i-th line of B (run them alternating).
   For every end-to-end metric and every workload the verdict, under the
   metric's bound from [Spec], is:

   - failed: B's runs failed more ops than A's, whatever the metric
     reads (a gain does not count when more operations fail);
   - better: at least 10 pairs, B wins at least 9 in 10 of them, and
     the medians differ in B's favour by more than A's interquartile
     spread;
   - unresolved: fewer than 10 pairs, or A's own spread is wider than
     the metric's bound and B does not beat every A run with every run;
   - worse: B's median is worse than A's by more than the bound;
   - unchanged: otherwise. *)

module J = Obs.Report

let num = function
  | J.Int i -> float_of_int i
  | J.Float f -> f
  | _ -> failwith "expected a number"

(* One field of the result lines, one value per run, in file order. *)
let runs dir workload field =
  let path = Filename.concat dir (workload ^ ".ndjson") in
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_bin path In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
    |> List.filter_map (fun l -> Option.map num (J.path field (Cache.Protocol.parse l)))

let failed_ops dir workload = List.fold_left ( +. ) 0.0 (runs dir workload [ "failed" ])

let take n xs = List.filteri (fun i _ -> i < n) xs

let verdict ~lower ~bound a b =
  let n = min (List.length a) (List.length b) in
  let a = take n a and b = take n b in
  let beats x y = if lower then y < x else y > x in
  let wins = List.length (List.filter Fun.id (List.map2 beats a b)) in
  let ma = Stats.median a and mb = Stats.median b in
  let q1, q3 = Stats.quartiles a in
  let sweep = List.for_all (fun y -> List.for_all (fun x -> beats x y) a) b in
  let worse_by =
    if ma = mb then 0.0
    else ((if lower then mb -. ma else ma -. mb) /. Float.abs ma)
  in
  if n < 10 then "unresolved"
  else if 10 * wins >= 9 * n && Float.abs (mb -. ma) > q3 -. q1 && beats ma mb then "better"
  else if (q3 -. q1) /. Float.abs ma > bound && not sweep then "unresolved"
  else if worse_by > bound then "worse"
  else "unchanged"

let main dir_a dir_b =
  Printf.printf "%-20s %-12s %24s %24s %7s  %s\n" "metric" "workload" "A median [q1,q3]"
    "B median [q1,q3]" "wins" "verdict";
  let worse = ref false in
  List.iter
    (fun (metric, _, lower, bound) ->
      List.iter
        (fun (wl, _) ->
          let field = [ "metrics"; metric; "value" ] in
          let a = runs dir_a wl field and b = runs dir_b wl field in
          let n = min (List.length a) (List.length b) in
          let show xs =
            if xs = [] then "-"
            else
              let q1, q3 = Stats.quartiles xs in
              Printf.sprintf "%.4g [%.4g,%.4g]" (Stats.median xs) q1 q3
          in
          let v =
            if failed_ops dir_b wl > failed_ops dir_a wl then "failed" else verdict ~lower ~bound a b
          in
          if v = "worse" || v = "failed" then worse := true;
          let wins =
            List.length
              (List.filter Fun.id
                 (List.map2 (fun x y -> if lower then y < x else y > x) (take n a) (take n b)))
          in
          Printf.printf "%-20s %-12s %24s %24s %3d/%-3d  %s\n" metric wl (show a) (show b) wins n
            v)
        Spec.workloads)
    Spec.end_to_end;
  if !worse then 1 else 0
