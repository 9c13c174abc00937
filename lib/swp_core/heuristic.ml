(* Packing strategies for phase 1.  [First_fit] reproduces the original
   solver bit-for-bit and remains the default; the other two are the
   extra heuristic arms of the II search's race — different packings
   fail at different IIs, so racing them closes part of the exact-vs-
   heuristic quality gap at near-zero cost. *)
type strategy = First_fit | Best_fit | Balanced

let strategy_name = function
  | First_fit -> "ffd"
  | Best_fit -> "bfd"
  | Balanced -> "bal"

let all_strategies = [ First_fit; Best_fit; Balanced ]

(* --- phase 1: packing assignment in decreasing-delay order ---
   The paper's ILP is a pure feasibility problem with no balancing
   objective: the first integral solution CPLEX finds packs the
   assignment variables greedily, clustering the instances of one
   filter on the same SM.  Decreasing-delay order places big instances
   first so the search succeeds near the II lower bound; the sort is
   stable, so equal-delay instances of one node stay adjacent and
   cluster onto the same SM exactly as plain first-fit would pack
   them.  Any assignment whose per-SM profiled load fits within the II
   satisfies constraint (2). *)
let pack ~strategy ~delays ~num_sms ~ii =
  let n = Array.length delays in
  let load = Array.make num_sms 0 in
  let sm_of = Array.make n (-1) in
  let ok = ref true in
  let sorted =
    List.stable_sort
      (fun a b -> compare delays.(b) delays.(a))
      (List.init n Fun.id)
  in
  List.iter
    (fun i ->
      let d = delays.(i) in
      let best = ref (-1) in
      (match strategy with
      | First_fit ->
        let p = ref 0 in
        while !best < 0 && !p < num_sms do
          if load.(!p) + d <= ii then best := !p;
          incr p
        done
      | Best_fit ->
        (* tightest feasible SM: maximum load that still fits, ties to
           the lowest SM index (deterministic) *)
        for p = 0 to num_sms - 1 do
          if load.(p) + d <= ii && (!best < 0 || load.(p) > load.(!best))
          then best := p
        done
      | Balanced ->
        (* longest-processing-time balance: always the least-loaded SM,
           ties to the lowest index; fails outright when even that SM
           cannot take the instance *)
        let m = ref 0 in
        for p = 1 to num_sms - 1 do
          if load.(p) < load.(!m) then m := p
        done;
        if load.(!m) + d <= ii then best := !m);
      if !best < 0 then ok := false
      else begin
        sm_of.(i) <- !best;
        load.(!best) <- load.(!best) + d
      end)
    sorted;
  if !ok then Some sm_of else None

(* Strongly connected components of the successor lists (Tarjan), in
   topological order: every edge between two components runs from an
   earlier one to a later one. *)
let sccs (succ : (int * int) list array) =
  let n = Array.length succ in
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] and next = ref 0 and out = ref [] in
  let rec visit v =
    index.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun (t, _) ->
        if index.(t) < 0 then begin
          visit t;
          low.(v) <- min low.(v) low.(t)
        end
        else if on_stack.(t) then low.(v) <- min low.(v) index.(t))
      succ.(v);
    if low.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      out := pop [] :: !out
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then visit v
  done;
  !out

(* --- phase 2: longest-path scheduling of A = T*f + o --- *)
(* Difference constraints:
   same SM : A_dst >= A_src + T*jlag + d_src
   cross SM: A_dst >= A_src + T*jlag + T  (forces f separation) *)
let place ~insts ~deps ~idx g (cfg : Select.config) ~num_sms ~ii ~sm_of =
  let n = Array.length insts in
  let delay_of (i : Instances.instance) = cfg.delay.(i.node) in
  let edges =
    List.map
      (fun (d : Instances.dep) ->
        let s = idx d.src and t = idx d.dst in
        let w =
          if s < 0 || sm_of.(s) = sm_of.(t) then (ii * d.jlag) + d.d_src
          else (ii * d.jlag) + ii
        in
        (s, t, w))
      deps
  in
  let a = Array.make n 0 in
  let feasible = ref true in
  (* a self-dependence with positive weight can never be satisfied *)
  List.iter (fun (s, t, w) -> if s = t && w > 0 then feasible := false) edges;
  (* The schedule is the least A >= 0 that satisfies every edge and keeps
     every o + d within the II.  Raising A along an edge and repairing a
     wrapped offset up to the next multiple of T are both monotone, so
     any order of applying them climbs to that least solution and never
     past it.  The packing is infeasible when no solution exists or an A
     of the least one exceeds (n+3)*T, the most any sensible schedule
     needs.

     An infeasible packing climbs through a great many repairs around
     one dependence cycle, so the climb is confined to it: strongly
     connected components are settled one at a time in topological
     order, each by a worklist over its own edges, and only a settled
     component's A values flow downstream.  Two facts end a hopeless
     climb early, neither of which can reject a packing that has a
     solution within the bound:
     - Shifting a solution down by T keeps it a solution, so a
       component that has one has one in which some A lies less than T
       above its entry value, and every other A at most the component's
       summed negative edge weights above that one (a path back to it
       bounds it).  The least solution lies below, so an A at [limit] or
       beyond means there is none.
     - [len] counts the edges behind an A since its last repair or the
       component's entry; as many as the component has instances repeat
       one whose A strictly grew, so the edges close a positive cycle. *)
  let bound = (n + 3) * ii in
  let succ = Array.make n [] in
  List.iter
    (fun (s, t, w) -> if s <> t then succ.(s) <- (t, w) :: succ.(s))
    (List.rev edges);
  let comps = sccs succ in
  let comp = Array.make n 0 in
  List.iteri (fun c members -> List.iter (fun v -> comp.(v) <- c) members) comps;
  let repair t v =
    if (v mod ii) + delay_of insts.(t) >= ii then ((v / ii) + 1) * ii else v
  in
  let len = Array.make n 0 and queued = Array.make n false in
  let work = Queue.create () in
  List.iteri
    (fun c members ->
      if !feasible then begin
        let size = List.length members in
        let fold f = List.fold_left f 0 members in
        let limit =
          fold (fun m v -> max m a.(v))
          + ii
          + fold (fun acc s ->
                List.fold_left
                  (fun acc (t, w) -> if comp.(t) = c && w < 0 then acc - w else acc)
                  acc succ.(s))
        in
        List.iter
          (fun v ->
            queued.(v) <- true;
            Queue.add v work)
          members;
        while !feasible && not (Queue.is_empty work) do
          let s = Queue.pop work in
          queued.(s) <- false;
          List.iter
            (fun (t, w) ->
              let v = a.(s) + w in
              let r = repair t v in
              if !feasible && comp.(t) = c && r > a.(t) then begin
                a.(t) <- r;
                len.(t) <- (if r > v then 0 else len.(s) + 1);
                if r > bound || r >= limit || len.(t) >= size then
                  feasible := false
                else if not queued.(t) then begin
                  queued.(t) <- true;
                  Queue.add t work
                end
              end)
            succ.(s)
        done;
        Queue.clear work;
        (* settled: its A values are entry values of later components *)
        List.iter
          (fun s ->
            List.iter
              (fun (t, w) ->
                if comp.(t) <> c then a.(t) <- max a.(t) (repair t (a.(s) + w)))
              succ.(s))
          members
      end)
    comps;
  if Array.exists (fun v -> v > bound) a then feasible := false;
  if not !feasible then `Infeasible
  else begin
    let entries =
      Array.to_list
        (Array.mapi
           (fun i (inst : Instances.instance) ->
             {
               Swp_schedule.inst;
               sm = sm_of.(i);
               o = a.(i) mod ii;
               f = a.(i) / ii;
             })
           insts)
    in
    let sched = { Swp_schedule.ii; entries; num_sms; config = cfg } in
    match Swp_schedule.validate g sched with
    | Ok () -> `Schedule sched
    | Error m -> failwith ("Heuristic.solve: produced invalid schedule: " ^ m)
  end

let solve ?(strategy = First_fit) ?insts ?deps g (cfg : Select.config)
    ~num_sms ~ii =
  let insts =
    Array.of_list
      (match insts with Some l -> l | None -> Instances.instances cfg)
  in
  let n = Array.length insts in
  let deps = match deps with Some l -> l | None -> Instances.deps g cfg in
  (* O(1) instance -> dense index (Instances.index is linear per call). *)
  let itbl = Hashtbl.create (2 * n) in
  Array.iteri (fun i inst -> Hashtbl.replace itbl inst i) insts;
  let idx i = match Hashtbl.find_opt itbl i with Some x -> x | None -> -1 in
  let delays =
    Array.map (fun (i : Instances.instance) -> cfg.delay.(i.node)) insts
  in
  if Array.exists (fun d -> d >= ii) delays then `Infeasible
  else
    match pack ~strategy ~delays ~num_sms ~ii with
    | None -> `Infeasible
    | Some sm_of -> place ~insts ~deps ~idx g cfg ~num_sms ~ii ~sm_of
