open Numeric

type var_map = {
  w : (int * int * int, int) Hashtbl.t;
  o : (int * int, int) Hashtbl.t;
  f : (int * int, int) Hashtbl.t;
  g : (int, int) Hashtbl.t;
}

let q = Rat.of_int

let build ?insts ?deps ?(cuts = false) g (cfg : Select.config) ~num_sms ~ii =
  let insts =
    match insts with Some l -> l | None -> Instances.instances cfg
  in
  let deps = match deps with Some l -> l | None -> Instances.deps g cfg in
  (* Quick infeasibility: constraint (4) requires o >= 0 and o + d < T. *)
  let too_slow =
    List.find_opt
      (fun (i : Instances.instance) -> cfg.delay.(i.node) >= ii)
      insts
  in
  match too_slow with
  | Some i ->
    Error
      (Printf.sprintf "delay of %s (%d) exceeds II %d"
         (Streamit.Graph.name g i.node) cfg.delay.(i.node) ii)
  | None ->
    let p = Lp.Problem.create () in
    let vm =
      {
        w = Hashtbl.create 64;
        o = Hashtbl.create 64;
        f = Hashtbl.create 64;
        g = Hashtbl.create 64;
      }
    in
    (* Stage variables are bounded by the pipeline depth, which cannot
       usefully exceed the instance count. *)
    let f_ub = Rat.of_int (Instances.num_instances cfg + 1) in
    List.iter
      (fun (i : Instances.instance) ->
        for sm = 0 to num_sms - 1 do
          let id =
            Lp.Problem.add_var p ~kind:Lp.Problem.Binary
              (Printf.sprintf "w_%d_%d_%d" i.node i.k sm)
          in
          Hashtbl.replace vm.w (i.node, i.k, sm) id
        done;
        let oid =
          Lp.Problem.add_var p ~kind:Lp.Problem.Integer
            ~ub:(Some (q (ii - 1 - cfg.delay.(i.node))))
            (Printf.sprintf "o_%d_%d" i.node i.k)
        in
        Hashtbl.replace vm.o (i.node, i.k) oid;
        let fid =
          Lp.Problem.add_var p ~kind:Lp.Problem.Integer ~ub:(Some f_ub)
            (Printf.sprintf "f_%d_%d" i.node i.k)
        in
        Hashtbl.replace vm.f (i.node, i.k) fid)
      insts;
    (* (1) each instance on exactly one SM *)
    List.iter
      (fun (i : Instances.instance) ->
        let e =
          Lp.Linexpr.of_terms
            (List.init num_sms (fun sm ->
                 (Rat.one, Hashtbl.find vm.w (i.node, i.k, sm))))
        in
        Lp.Problem.add_constraint p
          ~name:(Printf.sprintf "assign_%d_%d" i.node i.k)
          e Lp.Problem.Eq Lp.Linexpr.(of_int 1))
      insts;
    (* (2) per-SM load within the II *)
    for sm = 0 to num_sms - 1 do
      let e =
        Lp.Linexpr.of_terms
          (List.map
             (fun (i : Instances.instance) ->
               (q cfg.delay.(i.node), Hashtbl.find vm.w (i.node, i.k, sm)))
             insts)
      in
      Lp.Problem.add_constraint p
        ~name:(Printf.sprintf "resource_%d" sm)
        e Lp.Problem.Le
        (Lp.Linexpr.of_int ii)
    done;
    (* Big-instance clique cuts (opt-in): two instances each longer than
       half the II can never share an SM, so at most one of them lands on
       each.  Valid a priori — they tighten the LP relaxation without
       excluding any integral solution.  Off by default so the base
       constraint system stays exactly the paper's. *)
    if cuts then begin
      let big =
        List.filter
          (fun (i : Instances.instance) -> 2 * cfg.delay.(i.node) > ii)
          insts
      in
      if List.length big >= 2 then
        for sm = 0 to num_sms - 1 do
          let e =
            Lp.Linexpr.of_terms
              (List.map
                 (fun (i : Instances.instance) ->
                   (Rat.one, Hashtbl.find vm.w (i.node, i.k, sm)))
                 big)
          in
          Lp.Problem.add_constraint p
            ~name:(Printf.sprintf "clique_%d" sm)
            e Lp.Problem.Le
            (Lp.Linexpr.of_int 1)
        done
    end;
    (* Symmetry breaking: pin the first instance to SM 0 (any solution
       can be permuted into this form). *)
    (match insts with
    | first :: _ ->
      Lp.Problem.add_constraint p ~name:"symmetry"
        (Lp.Linexpr.var (Hashtbl.find vm.w (first.node, first.k, 0)))
        Lp.Problem.Eq
        Lp.Linexpr.(of_int 1)
    | [] -> ());
    (* (7) + (8) per dependence *)
    List.iteri
      (fun di (dep : Instances.dep) ->
        let u = dep.src.Instances.node and ku = dep.src.Instances.k in
        let v = dep.dst.Instances.node and kv = dep.dst.Instances.k in
        let fu = Hashtbl.find vm.f (u, ku)
        and fv = Hashtbl.find vm.f (v, kv)
        and ou = Hashtbl.find vm.o (u, ku)
        and ov = Hashtbl.find vm.o (v, kv) in
        (* Self-dependences (an instance with itself, only possible via
           loop-carried edges) never cross SMs. *)
        if u = v && ku = kv then begin
          (* A >= A + T*jlag + d  =>  0 >= T*jlag + d *)
          if (ii * dep.jlag) + dep.d_src > 0 then
            Lp.Problem.add_constraint p
              ~name:(Printf.sprintf "dep%d_self_infeasible" di)
              (Lp.Linexpr.of_int 1) Lp.Problem.Le
              (Lp.Linexpr.of_int 0)
        end
        else begin
          let gid =
            Lp.Problem.add_var p ~kind:Lp.Problem.Binary
              (Printf.sprintf "g_%d" di)
          in
          Hashtbl.replace vm.g di gid;
          for sm = 0 to num_sms - 1 do
            let wu = Hashtbl.find vm.w (u, ku, sm)
            and wv = Hashtbl.find vm.w (v, kv, sm) in
            (* g >= wv - wu ; g >= wu - wv *)
            Lp.Problem.add_constraint p
              ~name:(Printf.sprintf "dep%d_g_a_%d" di sm)
              (Lp.Linexpr.of_terms
                 [ (Rat.one, gid); (Rat.one, wu); (Rat.minus_one, wv) ])
              Lp.Problem.Ge (Lp.Linexpr.of_int 0);
            Lp.Problem.add_constraint p
              ~name:(Printf.sprintf "dep%d_g_b_%d" di sm)
              (Lp.Linexpr.of_terms
                 [ (Rat.one, gid); (Rat.one, wv); (Rat.minus_one, wu) ])
              Lp.Problem.Ge (Lp.Linexpr.of_int 0)
          done;
          (* (8a): T*fv + ov >= T*(jlag + fu) + ou + d(u) *)
          Lp.Problem.add_constraint p
            ~name:(Printf.sprintf "dep%d_time" di)
            (Lp.Linexpr.of_terms
               [
                 (q ii, fv);
                 (Rat.one, ov);
                 (q (-ii), fu);
                 (Rat.minus_one, ou);
               ])
            Lp.Problem.Ge
            (Lp.Linexpr.of_int ((ii * dep.jlag) + dep.d_src));
          (* (8b): T*fv + ov >= T*(jlag + fu + g) *)
          Lp.Problem.add_constraint p
            ~name:(Printf.sprintf "dep%d_cross" di)
            (Lp.Linexpr.of_terms
               [
                 (q ii, fv);
                 (Rat.one, ov);
                 (q (-ii), fu);
                 (q (-ii), gid);
               ])
            Lp.Problem.Ge
            (Lp.Linexpr.of_int (ii * dep.jlag))
        end)
      deps;
    Ok (p, vm)

(* Cover-cut separation for the per-SM knapsack rows (2): from a
   fractional point, greedily build a cover C (instances whose combined
   delay exceeds the II) per SM in decreasing assignment-value order; the
   inequality sum_{i in C} w(i,sm) <= |C|-1 holds for every integral
   packing and is emitted only when the fractional point violates it.
   All arithmetic is exact rational and the orderings have deterministic
   tie-breaks, so separation is reproducible. *)
let cover_cuts vm insts (cfg : Select.config) ~num_sms ~ii
    (sol : Lp.Solution.t) =
  let cuts = ref [] in
  for sm = 0 to num_sms - 1 do
    let items =
      List.filter_map
        (fun (i : Instances.instance) ->
          let d = cfg.delay.(i.node) in
          if d <= 0 then None
          else
            let id = Hashtbl.find vm.w (i.node, i.k, sm) in
            let x = sol.Lp.Solution.values.(id) in
            if Rat.sign x <= 0 then None else Some (id, d, x))
        insts
    in
    let items =
      List.stable_sort
        (fun (ida, _, xa) (idb, _, xb) ->
          if Rat.equal xa xb then compare ida idb
          else if Rat.gt xa xb then -1
          else 1)
        items
    in
    (* take items until the delay sum exceeds the II: a cover *)
    let rec take cover dsum xsum = function
      | _ when dsum > ii -> Some (cover, xsum)
      | [] -> None
      | (id, d, x) :: tl -> take (id :: cover) (dsum + d) (Rat.add xsum x) tl
    in
    match take [] 0 Rat.zero items with
    | None -> ()
    | Some (cover, xsum) ->
      let k = List.length cover in
      if Rat.gt xsum (q (k - 1)) then
        cuts :=
          ( Lp.Linexpr.of_terms (List.rev_map (fun id -> (Rat.one, id)) cover),
            Lp.Problem.Le,
            Lp.Linexpr.of_int (k - 1) )
          :: !cuts
  done;
  List.rev !cuts

(* Translate a feasible schedule (typically the heuristic scheduler's) into
   an assignment of the ILP variables, to seed branch-and-bound as its
   incumbent.  SM labels are permuted so the first instance lands on SM 0,
   matching the symmetry-breaking constraint; the cross-SM indicators [g]
   are set from the permuted assignment.  Validity of the result is checked
   by {!Lp.Branch_bound} itself (an unusable seed is simply dropped). *)
let assignment_of_schedule p vm insts deps (s : Swp_schedule.t) ~num_sms =
  let sm_of = Hashtbl.create 64 and o_of = Hashtbl.create 64
  and f_of = Hashtbl.create 64 in
  List.iter
    (fun (e : Swp_schedule.entry) ->
      let key = (e.inst.Instances.node, e.inst.Instances.k) in
      Hashtbl.replace sm_of key e.sm;
      Hashtbl.replace o_of key e.o;
      Hashtbl.replace f_of key e.f)
    s.Swp_schedule.entries;
  let perm =
    match insts with
    | [] -> fun sm -> sm
    | (first : Instances.instance) :: _ ->
      let s0 = Hashtbl.find sm_of (first.node, first.k) in
      fun sm -> if sm = s0 then 0 else if sm = 0 then s0 else sm
  in
  let values = Array.make (Lp.Problem.num_vars p) Rat.zero in
  List.iter
    (fun (i : Instances.instance) ->
      let key = (i.node, i.k) in
      let sm = perm (Hashtbl.find sm_of key) in
      for s = 0 to num_sms - 1 do
        values.(Hashtbl.find vm.w (i.node, i.k, s)) <-
          (if s = sm then Rat.one else Rat.zero)
      done;
      values.(Hashtbl.find vm.o key) <- Rat.of_int (Hashtbl.find o_of key);
      values.(Hashtbl.find vm.f key) <- Rat.of_int (Hashtbl.find f_of key))
    insts;
  List.iteri
    (fun di (dep : Instances.dep) ->
      match Hashtbl.find_opt vm.g di with
      | None -> ()
      | Some gid ->
        let su =
          perm (Hashtbl.find sm_of (dep.src.Instances.node, dep.src.Instances.k))
        and sv =
          perm (Hashtbl.find sm_of (dep.dst.Instances.node, dep.dst.Instances.k))
        in
        values.(gid) <- (if su = sv then Rat.zero else Rat.one))
    deps;
  fun v -> values.(v)

let solve ?(node_budget = 4000) ?budget ?insts ?deps ?warm_start ?stats g cfg
    ~num_sms ~ii =
  let insts =
    match insts with Some l -> l | None -> Instances.instances cfg
  in
  let deps = match deps with Some l -> l | None -> Instances.deps g cfg in
  match build ~insts ~deps g cfg ~num_sms ~ii with
  | Error _ -> `Infeasible
  | Ok (p, vm) -> (
    let incumbent =
      match warm_start with
      | Some (s : Swp_schedule.t)
        when s.Swp_schedule.ii = ii && s.Swp_schedule.num_sms = num_sms ->
        Some (assignment_of_schedule p vm insts deps s ~num_sms)
      | _ -> None
    in
    let outcome, bb = Lp.Branch_bound.solve ~node_budget ?budget ?incumbent p in
    (match stats with Some r -> r := Some bb | None -> ());
    match outcome with
    | Lp.Solution.Infeasible -> `Infeasible
    | Lp.Solution.Unbounded ->
      (* feasibility problem over bounded variables; cannot happen *)
      assert false
    | Lp.Solution.Budget_exhausted _ -> `Budget_exhausted
    | Lp.Solution.Optimal sol ->
      let entries =
        List.map
          (fun (i : Instances.instance) ->
            let sm = ref (-1) in
            for s = 0 to num_sms - 1 do
              if
                Lp.Solution.value_int sol (Hashtbl.find vm.w (i.node, i.k, s))
                = 1
              then sm := s
            done;
            {
              Swp_schedule.inst = i;
              sm = !sm;
              o = Lp.Solution.value_int sol (Hashtbl.find vm.o (i.node, i.k));
              f = Lp.Solution.value_int sol (Hashtbl.find vm.f (i.node, i.k));
            })
          insts
      in
      let sched = { Swp_schedule.ii; entries; num_sms; config = cfg } in
      (match Swp_schedule.validate g sched with
      | Ok () -> `Schedule sched
      | Error m -> failwith ("Ilp.solve: solver returned invalid schedule: " ^ m)))
