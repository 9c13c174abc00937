(* Large-neighborhood refinement of a feasible schedule: freeze the
   winning schedule's SM assignment, pick a target II below the achieved
   one, repair the assignment greedily so every SM load fits the target
   (relocations and swaps off overloaded SMs), and re-run the phase-2
   longest-path placement at the target.  A repair that leaves an SM
   overloaded makes the probe infeasible.  Each probe is deterministic
   (fixed iteration orders, no clock read to decide anything) and the
   driver commits probes serially in target order, so refinement
   preserves the byte-identical determinism of the surrounding search. *)

type probe = {
  target : int;
  feasible : bool;
  moved : int;
  time_s : float;
}

let m_probes = Obs.Metrics.counter "lns.probes"

(* Greedy repair: relocations first (worst-fit destination — the least
   loaded SM that fits, so future moves keep room), then swaps of a big
   instance on an overloaded SM against a smaller one elsewhere.  Every
   move strictly decreases the total overload, so the loop terminates.
   All scan orders are fixed (SM index ascending, instances by
   decreasing delay with index tie-break) for determinism. *)
let repair ~n ~delays ~num_sms ~target sm_of =
  let load = Array.make num_sms 0 in
  for i = 0 to n - 1 do
    load.(sm_of.(i)) <- load.(sm_of.(i)) + delays.(i)
  done;
  let moved = ref 0 in
  let own_desc p =
    List.stable_sort
      (fun a b ->
        match compare delays.(b) delays.(a) with
        | 0 -> compare a b
        | c -> c)
      (List.filter (fun i -> sm_of.(i) = p) (List.init n Fun.id))
  in
  let progress = ref true in
  while !progress && Array.exists (fun l -> l > target) load do
    progress := false;
    for p = 0 to num_sms - 1 do
      if load.(p) > target then
        List.iter
          (fun i ->
            if load.(p) > target then begin
              let dest = ref (-1) in
              for q = 0 to num_sms - 1 do
                if
                  q <> p
                  && load.(q) + delays.(i) <= target
                  && (!dest < 0 || load.(q) < load.(!dest))
                then dest := q
              done;
              if !dest >= 0 then begin
                sm_of.(i) <- !dest;
                load.(p) <- load.(p) - delays.(i);
                load.(!dest) <- load.(!dest) + delays.(i);
                incr moved;
                progress := true
              end
            end)
          (own_desc p)
    done;
    if not !progress then
      (* relocation is stuck: try pairwise swaps *)
      for p = 0 to num_sms - 1 do
        if load.(p) > target then
          List.iter
            (fun a ->
              if load.(p) > target then begin
                let found = ref None in
                (try
                   for q = 0 to num_sms - 1 do
                     if q <> p then
                       for b = 0 to n - 1 do
                         if
                           sm_of.(b) = q
                           && delays.(b) < delays.(a)
                           && load.(p) - delays.(a) + delays.(b) <= target
                           && load.(q) - delays.(b) + delays.(a) <= target
                         then begin
                           found := Some (q, b);
                           raise Exit
                         end
                       done
                   done
                 with Exit -> ());
                match !found with
                | Some (q, b) ->
                  sm_of.(a) <- q;
                  sm_of.(b) <- p;
                  load.(p) <- load.(p) - delays.(a) + delays.(b);
                  load.(q) <- load.(q) - delays.(b) + delays.(a);
                  incr moved;
                  progress := true
                | None -> ()
              end)
            (own_desc p)
      done
  done;
  (load, !moved)

let refine ?(rounds = 12) ~ledger_ok ~commit ~insts ~deps g cfg ~num_sms ~lb
    (s0 : Swp_schedule.t) =
  let insts = Array.of_list insts in
  let n = Array.length insts in
  if n = 0 || s0.Swp_schedule.ii <= lb then s0
  else begin
    let itbl = Hashtbl.create (2 * n) in
    Array.iteri (fun i inst -> Hashtbl.replace itbl inst i) insts;
    let idx i = match Hashtbl.find_opt itbl i with Some x -> x | None -> -1 in
    let delays =
      Array.map
        (fun (i : Instances.instance) -> cfg.Select.delay.(i.node))
        insts
    in
    let sm_of_schedule (s : Swp_schedule.t) =
      let a = Array.make n 0 in
      List.iter
        (fun (e : Swp_schedule.entry) ->
          let i = idx e.inst in
          if i >= 0 then a.(i) <- e.sm)
        s.Swp_schedule.entries;
      a
    in
    let best = ref s0 in
    let probe_at target =
      let t0 = Resil.Clock.now () in
      Obs.Metrics.inc m_probes;
      let sm_of = sm_of_schedule !best in
      let load, moved = repair ~n ~delays ~num_sms ~target sm_of in
      let sched =
        if Array.exists (fun l -> l > target) load then None
        else
          match
            Heuristic.place ~insts ~deps ~idx g cfg ~num_sms ~ii:target ~sm_of
          with
          | `Schedule s -> Some s
          | `Infeasible -> None
      in
      let probe =
        {
          target;
          feasible = sched <> None;
          moved;
          time_s = Resil.Clock.now () -. t0;
        }
      in
      (sched, probe)
    in
    (* Bisection between the lower bound and the achieved II, always
       repairing from the best schedule found so far; leftover rounds
       walk the frontier down one cycle at a time. *)
    let lo = ref (lb - 1) and r = ref rounds in
    while
      !r > 0
      && !best.Swp_schedule.ii - !lo > 1
      && ledger_ok ()
    do
      let hi = !best.Swp_schedule.ii in
      let mid = (!lo + hi) / 2 in
      let sched, probe = probe_at mid in
      commit probe;
      (match sched with Some s -> best := s | None -> lo := mid);
      decr r
    done;
    !best
  end
