(* Two-phase primal simplex over exact rationals.

   Conversion to standard form:
   - a variable with finite lower bound [l] is substituted [x = l + x'],
     [x' >= 0];
   - a free variable is split [x = x+ - x-];
   - a finite upper bound becomes an extra [<=] row (after substitution);
   - every row is flipped so its right-hand side is non-negative, then gets
     a slack ([<=]), a surplus plus artificial ([>=]) or an artificial ([=]).

   Phase 1 minimises the sum of artificials from the all-slack/artificial
   basis; phase 2 re-prices the user objective.  Bland's rule (smallest
   entering index, smallest-basic-variable tie-break on the ratio test)
   guarantees termination.

   Two tableau back ends share the standard-form construction:

   - the default {e sparse} core stores each row as sorted (column, value)
     pairs, skipping zero entries in pivoting, pricing and the ratio test;
     a row whose fill ratio crosses a threshold is densified in place
     (hybrid storage).  The scheduling ILPs of Sec. III are ~95% zeros, so
     this is the production path;
   - the {e dense} core is the original [Rat.t array array] tableau, kept
     as the reference implementation that the property tests cross-validate
     the sparse core against (identical pivot choices, identical results).
*)

open Numeric

(* How an original problem variable maps into standard-form columns. *)
type var_map =
  | Shifted of int * Rat.t (* column, lower-bound offset: x = off + col *)
  | Split of int * int (* x = pos - neg *)

let q0 = Rat.zero
let q1 = Rat.one

(* Rare-event telemetry: row densifications (a sparse row crossing the
   hybrid fill threshold) and permanent switches to Bland's pricing rule
   after the degeneracy budget.  Both fire far from the per-pivot hot
   loop, so the registry bumps are free. *)
let m_densifications = Obs.Metrics.counter "lp.densifications"
let m_bland = Obs.Metrics.counter "lp.bland_fallbacks"

exception Pivot_limit

(* ---------- shared standard-form construction ---------- *)

(* One standard-form row, post-flip: [coeffs] over struct columns sorted by
   column, [rhs >= 0]. *)
type std_row = {
  coeffs : (int * Rat.t) list;
  rel : Problem.relation;
  rhs : Rat.t;
}

type std_form = {
  vmap : var_map array;
  srows : std_row array;
  nstruct : int;
  n_slack : int;
  n_art : int;
  ocoeffs : (int * Rat.t) list; (* minimized objective, sorted *)
  oconst : Rat.t;
  dir : [ `Minimize | `Maximize ];
}

let build_std problem ~lb ~ub =
  let n = Problem.num_vars problem in
  if Array.length lb <> n || Array.length ub <> n then
    invalid_arg "Simplex.solve_with_bounds: bound arrays wrong length";
  (* Quick bound sanity: lb > ub is immediately infeasible. *)
  let bounds_ok = ref true in
  for v = 0 to n - 1 do
    match (lb.(v), ub.(v)) with
    | Some l, Some u when Rat.gt l u -> bounds_ok := false
    | _ -> ()
  done;
  if not !bounds_ok then None
  else begin
    (* --- assign standard-form columns --- *)
    let next_col = ref 0 in
    let fresh () =
      let c = !next_col in
      incr next_col;
      c
    in
    let vmap = Array.make n (Split (0, 0)) in
    for v = 0 to n - 1 do
      vmap.(v) <-
        (match lb.(v) with
        | Some l -> Shifted (fresh (), l)
        | None -> Split (fresh (), fresh ()))
    done;
    let nstruct = !next_col in
    (* Translate an original-variable linear expression into (sorted std
       coeffs, constant).  Each struct column appears at most once because
       {!Linexpr} terms are unique per variable. *)
    let translate e =
      let const = ref (Linexpr.constant e) in
      let pairs = ref [] in
      List.iter
        (fun (v, q) ->
          match vmap.(v) with
          | Shifted (c, off) ->
            pairs := (c, q) :: !pairs;
            const := Rat.add !const (Rat.mul q off)
          | Split (cp, cn) -> pairs := (cn, Rat.neg q) :: (cp, q) :: !pairs)
        (Linexpr.terms e);
      let pairs =
        List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) !pairs
      in
      (pairs, !const)
    in
    (* --- collect rows: user constraints plus upper-bound rows --- *)
    let rows = ref [] in
    List.iter
      (fun (c : Problem.cstr) ->
        let coeffs, const = translate c.lhs in
        rows := (coeffs, c.rel, Rat.sub c.rhs const) :: !rows)
      (Problem.constraints problem);
    for v = 0 to n - 1 do
      match (ub.(v), vmap.(v)) with
      | Some u, Shifted (c, off) ->
        rows := ([ (c, q1) ], Problem.Le, Rat.sub u off) :: !rows
      | Some u, Split (cp, cn) ->
        rows := ([ (cp, q1); (cn, Rat.neg q1) ], Problem.Le, u) :: !rows
      | None, _ -> ()
    done;
    let flip (coeffs, rel, rhs) =
      if Rat.sign rhs >= 0 then { coeffs; rel; rhs }
      else
        {
          coeffs = List.map (fun (c, q) -> (c, Rat.neg q)) coeffs;
          rel =
            (match rel with Problem.Le -> Problem.Ge | Ge -> Le | Eq -> Eq);
          rhs = Rat.neg rhs;
        }
    in
    (* [!rows] is in reverse constraint order; rev_map restores it. *)
    let srows = Array.of_list (List.rev_map flip !rows) in
    let n_slack = ref 0 and n_art = ref 0 in
    Array.iter
      (fun r ->
        match r.rel with
        | Problem.Le -> incr n_slack
        | Problem.Ge ->
          incr n_slack;
          incr n_art
        | Problem.Eq -> incr n_art)
      srows;
    let dir, obj_expr = Problem.objective problem in
    let obj_expr =
      match dir with `Minimize -> obj_expr | `Maximize -> Linexpr.neg obj_expr
    in
    let ocoeffs, oconst = translate obj_expr in
    Some
      {
        vmap;
        srows;
        nstruct;
        n_slack = !n_slack;
        n_art = !n_art;
        ocoeffs;
        oconst;
        dir;
      }
  end

(* Map standard-form column values back to problem variables. *)
let extract_values sf colval =
  Array.map
    (function
      | Shifted (c, off) -> Rat.add off colval.(c)
      | Split (cp, cn) -> Rat.sub colval.(cp) colval.(cn))
    sf.vmap

(* ---------- sparse tableau core (production path) ---------- *)

type sp = { mutable idx : int array; mutable vals : Rat.t array; mutable n : int }

type srow = Sparse of sp | Dense of Rat.t array

type stab = {
  rows : srow array;
  obj : Rat.t array; (* reduced-cost row, dense, length ncols+1 *)
  basis : int array;
  ncols : int;
  art_start : int;
  dense_thresh : int; (* densify a row whose nnz exceeds this *)
  mutable pivots : int;
  mutable max_nnz : int;
}

let sp_get r c =
  let lo = ref 0 and hi = ref (r.n - 1) in
  let found = ref q0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let ic = r.idx.(mid) in
    if ic = c then begin
      found := r.vals.(mid);
      lo := !hi + 1
    end
    else if ic < c then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let row_get row c = match row with Sparse r -> sp_get r c | Dense a -> a.(c)

let row_nnz row =
  match row with
  | Sparse r -> r.n
  | Dense a ->
    let k = ref 0 in
    Array.iter (fun x -> if not (Rat.is_zero x) then incr k) a;
    !k

let row_iter_nz row f =
  match row with
  | Sparse r ->
    for k = 0 to r.n - 1 do
      f r.idx.(k) r.vals.(k)
    done
  | Dense a ->
    Array.iteri (fun j x -> if not (Rat.is_zero x) then f j x) a

let row_scale row q =
  match row with
  | Sparse r ->
    for k = 0 to r.n - 1 do
      r.vals.(k) <- Rat.mul r.vals.(k) q
    done
  | Dense a ->
    for j = 0 to Array.length a - 1 do
      if not (Rat.is_zero a.(j)) then a.(j) <- Rat.mul a.(j) q
    done

let sp_to_dense ncols r =
  let a = Array.make (ncols + 1) q0 in
  for k = 0 to r.n - 1 do
    a.(r.idx.(k)) <- r.vals.(k)
  done;
  a

(* dst := dst - f * src (f nonzero); returns the replacement row,
   densifying when the merged fill crosses the threshold. *)
let row_axpy t dst f src =
  match (dst, src) with
  | Dense d, _ ->
    row_iter_nz src (fun j x -> d.(j) <- Rat.sub d.(j) (Rat.mul f x));
    dst
  | Sparse d, Dense _ ->
    Obs.Metrics.inc m_densifications;
    let da = sp_to_dense t.ncols d in
    row_iter_nz src (fun j x -> da.(j) <- Rat.sub da.(j) (Rat.mul f x));
    Dense da
  | Sparse d, Sparse s ->
    let cap = d.n + s.n in
    let ri = Array.make (Stdlib.max cap 1) 0 in
    let rv = Array.make (Stdlib.max cap 1) q0 in
    let k = ref 0 and i = ref 0 and j = ref 0 in
    let put c v =
      if not (Rat.is_zero v) then begin
        ri.(!k) <- c;
        rv.(!k) <- v;
        incr k
      end
    in
    while !i < d.n || !j < s.n do
      if !j >= s.n || (!i < d.n && d.idx.(!i) < s.idx.(!j)) then begin
        put d.idx.(!i) d.vals.(!i);
        incr i
      end
      else if !i >= d.n || s.idx.(!j) < d.idx.(!i) then begin
        put s.idx.(!j) (Rat.neg (Rat.mul f s.vals.(!j)));
        incr j
      end
      else begin
        put d.idx.(!i) (Rat.sub d.vals.(!i) (Rat.mul f s.vals.(!j)));
        incr i;
        incr j
      end
    done;
    let merged = { idx = ri; vals = rv; n = !k } in
    if !k > t.dense_thresh then begin
      Obs.Metrics.inc m_densifications;
      Dense (sp_to_dense t.ncols merged)
    end
    else Sparse merged

let tableau_nnz t =
  Array.fold_left (fun acc row -> acc + row_nnz row) 0 t.rows

(* Gaussian elimination step: make column [c] a unit column with a 1 in row
   [r], updating the objective row too. *)
let pivot t r c =
  let piv = row_get t.rows.(r) c in
  if Rat.is_zero piv then invalid_arg "Simplex.pivot: zero pivot";
  row_scale t.rows.(r) (Rat.inv piv);
  let prow = t.rows.(r) in
  Array.iteri
    (fun i row ->
      if i <> r then begin
        let f = row_get row c in
        if not (Rat.is_zero f) then t.rows.(i) <- row_axpy t row f prow
      end)
    t.rows;
  let fobj = t.obj.(c) in
  if not (Rat.is_zero fobj) then
    row_iter_nz prow (fun j x -> t.obj.(j) <- Rat.sub t.obj.(j) (Rat.mul fobj x));
  t.basis.(r) <- c;
  t.pivots <- t.pivots + 1;
  let nnz = tableau_nnz t in
  if nnz > t.max_nnz then t.max_nnz <- nnz

(* One simplex phase: minimise the objective encoded in [t.obj], entering
   candidates restricted to columns < [max_col].  Returns [`Optimal] or
   [`Unbounded].

   Pricing: Dantzig's rule (most negative reduced cost) for speed, then a
   permanent switch to Bland's rule (smallest index) after a degeneracy
   budget to guarantee termination.  A hard pivot cap bounds the cost of
   pathological instances; it raises {!Pivot_limit}, which the MILP
   driver reports as budget exhaustion.
   @raise Pivot_limit *)
let run_phase ?budget t ~max_col =
  let m = Array.length t.rows in
  let bland_after = 10 * (m + t.ncols) in
  let max_pivots = 60 * (m + t.ncols) in
  let pivots = ref 0 in
  let bland_noted = ref false in
  let rec loop () =
    if !pivots > max_pivots then raise Pivot_limit;
    (* The token is checked before every pivot: its work cap is an int
       compare, and its wall clock is read only when a deadline is armed
       (microseconds against a rational pivot's milliseconds). *)
    (match budget with
    | Some b -> if Resil.Budget.over b then raise Pivot_limit
    | None -> ());
    let use_bland = !pivots > bland_after in
    if use_bland && not !bland_noted then begin
      bland_noted := true;
      Obs.Metrics.inc m_bland
    end;
    let entering = ref (-1) in
    if use_bland then (
      try
        for j = 0 to max_col - 1 do
          if Rat.sign t.obj.(j) < 0 then begin
            entering := j;
            raise Exit
          end
        done
      with Exit -> ())
    else begin
      let best = ref q0 in
      for j = 0 to max_col - 1 do
        if Rat.lt t.obj.(j) !best then begin
          best := t.obj.(j);
          entering := j
        end
      done
    end;
    if !entering < 0 then `Optimal
    else begin
      let c = !entering in
      (* Ratio test with Bland tie-break on smallest basic variable. *)
      let best_row = ref (-1) in
      let best_ratio = ref q0 in
      for i = 0 to m - 1 do
        let a = row_get t.rows.(i) c in
        if Rat.sign a > 0 then begin
          let ratio = Rat.div (row_get t.rows.(i) t.ncols) a in
          if
            !best_row < 0
            || Rat.lt ratio !best_ratio
            || (Rat.equal ratio !best_ratio && t.basis.(i) < t.basis.(!best_row))
          then begin
            best_row := i;
            best_ratio := ratio
          end
        end
      done;
      if !best_row < 0 then `Unbounded
      else begin
        pivot t !best_row c;
        incr pivots;
        (match budget with Some b -> Resil.Budget.charge b 1 | None -> ());
        loop ()
      end
    end
  in
  loop ()

let solve_std_sparse ?budget sf =
  let m = Array.length sf.srows in
  let slack_start = sf.nstruct in
  let art_start = sf.nstruct + sf.n_slack in
  let ncols = sf.nstruct + sf.n_slack + sf.n_art in
  (* Densify rows filled past 1/4 of the column count (but never tiny
     rows, where dense storage costs nothing anyway). *)
  let dense_thresh = Stdlib.max 16 ((ncols + 1) / 4) in
  let t =
    {
      rows = Array.make m (Dense [||]);
      obj = Array.make (ncols + 1) q0;
      basis = Array.make m (-1);
      ncols;
      art_start;
      dense_thresh;
      pivots = 0;
      max_nnz = 0;
    }
  in
  (* --- fill the tableau --- *)
  let slack_next = ref slack_start and art_next = ref art_start in
  Array.iteri
    (fun i r ->
      let aux =
        match r.rel with
        | Problem.Le ->
          let s = !slack_next in
          incr slack_next;
          t.basis.(i) <- s;
          [ (s, q1) ]
        | Problem.Ge ->
          let s = !slack_next in
          incr slack_next;
          let a = !art_next in
          incr art_next;
          t.basis.(i) <- a;
          [ (s, Rat.neg q1); (a, q1) ]
        | Problem.Eq ->
          let a = !art_next in
          incr art_next;
          t.basis.(i) <- a;
          [ (a, q1) ]
      in
      (* struct coeffs < slack cols < art cols <= rhs col: concatenation
         stays sorted; drop explicit zeros from the constraint. *)
      let entries =
        List.filter (fun (_, q) -> not (Rat.is_zero q)) r.coeffs
        @ aux
        @ (if Rat.is_zero r.rhs then [] else [ (ncols, r.rhs) ])
      in
      let nnz = List.length entries in
      if nnz > t.dense_thresh then begin
        let a = Array.make (ncols + 1) q0 in
        List.iter (fun (c, q) -> a.(c) <- q) entries;
        t.rows.(i) <- Dense a
      end
      else
        t.rows.(i) <-
          Sparse
            {
              idx = Array.of_list (List.map fst entries);
              vals = Array.of_list (List.map snd entries);
              n = nnz;
            })
    sf.srows;
  t.max_nnz <- tableau_nnz t;
  let stats () =
    {
      Solution.pivots = t.pivots;
      tableau_rows = m;
      tableau_cols = ncols + 1;
      max_nnz = t.max_nnz;
      final_nnz = tableau_nnz t;
      dense_rows =
        Array.fold_left
          (fun acc row -> match row with Dense _ -> acc + 1 | Sparse _ -> acc)
          0 t.rows;
    }
  in
  let outcome =
    try
      (* --- phase 1 --- *)
      let has_artificials = sf.n_art > 0 in
      let phase1_result =
        if not has_artificials then `Optimal
        else begin
          (* Reduced costs for min (sum of artificials) with the initial
             basis: subtract each artificial-basic row from the cost row. *)
          Array.fill t.obj 0 (ncols + 1) q0;
          for j = art_start to ncols - 1 do
            t.obj.(j) <- q1
          done;
          for i = 0 to m - 1 do
            if t.basis.(i) >= art_start then
              row_iter_nz t.rows.(i) (fun j x ->
                  t.obj.(j) <- Rat.sub t.obj.(j) x)
          done;
          run_phase ?budget t ~max_col:art_start
        end
      in
      match phase1_result with
      | `Unbounded ->
        (* Phase-1 objective is bounded below by zero; cannot happen. *)
        assert false
      | `Optimal ->
      let phase1_obj = Rat.neg t.obj.(ncols) in
      if has_artificials && Rat.sign phase1_obj > 0 then Solution.Infeasible
      else begin
        (* Drive lingering artificials out of the basis. *)
        for i = 0 to m - 1 do
          if t.basis.(i) >= art_start then begin
            let found = ref (-1) in
            (try
               row_iter_nz t.rows.(i) (fun j x ->
                   if j < art_start && not (Rat.is_zero x) then begin
                     found := j;
                     raise Exit
                   end)
             with Exit -> ());
            if !found >= 0 then pivot t i !found
            (* else: the row is all-zero over real columns (redundant);
               the artificial stays basic at value 0, which is harmless
               because artificials are barred from entering and the row's
               rhs is 0. *)
          end
        done;
        (* --- phase 2: re-price the user objective --- *)
        Array.fill t.obj 0 (ncols + 1) q0;
        List.iter (fun (c, q) -> t.obj.(c) <- Rat.add t.obj.(c) q) sf.ocoeffs;
        (* c̄ = c - c_B B⁻¹A: subtract c_b(i) × row_i for each basic var
           with a nonzero cost coefficient. *)
        for i = 0 to m - 1 do
          let cb = t.obj.(t.basis.(i)) in
          if not (Rat.is_zero cb) then
            row_iter_nz t.rows.(i) (fun j x ->
                t.obj.(j) <- Rat.sub t.obj.(j) (Rat.mul cb x))
        done;
        (match run_phase ?budget t ~max_col:art_start with
        | `Unbounded -> Solution.Unbounded
        | `Optimal ->
          (* Extract: std column values, then map back. *)
          let colval = Array.make ncols q0 in
          for i = 0 to m - 1 do
            if t.basis.(i) < ncols then
              colval.(t.basis.(i)) <- row_get t.rows.(i) ncols
          done;
          let values = extract_values sf colval in
          let z_std = Rat.add (Rat.neg t.obj.(ncols)) sf.oconst in
          let objective =
            match sf.dir with
            | `Minimize -> z_std
            | `Maximize -> Rat.neg z_std
          in
          Solution.Optimal { values; objective; lp = stats () })
      end
    with Pivot_limit -> Solution.Budget_exhausted None
  in
  (outcome, stats ())

(* ---------- dense tableau core (reference path) ---------- *)

module Dense_core = struct
  type tableau = {
    rows : Rat.t array array; (* m rows, each of length ncols+1 (rhs last) *)
    obj : Rat.t array; (* reduced-cost row, length ncols+1; last = -z *)
    basis : int array; (* basic column of each row *)
    ncols : int;
    art_start : int;
    mutable pivots : int;
  }

  let pivot t r c =
    let prow = t.rows.(r) in
    let piv = prow.(c) in
    if Rat.is_zero piv then invalid_arg "Simplex.pivot: zero pivot";
    let inv = Rat.inv piv in
    for j = 0 to t.ncols do
      prow.(j) <- Rat.mul prow.(j) inv
    done;
    let eliminate row =
      let f = row.(c) in
      if not (Rat.is_zero f) then
        for j = 0 to t.ncols do
          row.(j) <- Rat.sub row.(j) (Rat.mul f prow.(j))
        done
    in
    Array.iteri (fun i row -> if i <> r then eliminate row) t.rows;
    eliminate t.obj;
    t.basis.(r) <- c;
    t.pivots <- t.pivots + 1

  let run_phase ?budget t ~max_col =
    let m = Array.length t.rows in
    let bland_after = 10 * (m + t.ncols) in
    let max_pivots = 60 * (m + t.ncols) in
    let pivots = ref 0 in
    let bland_noted = ref false in
    let rec loop () =
      if !pivots > max_pivots then raise Pivot_limit;
      (match budget with
      | Some b -> if Resil.Budget.over b then raise Pivot_limit
      | None -> ());
      let use_bland = !pivots > bland_after in
      if use_bland && not !bland_noted then begin
        bland_noted := true;
        Obs.Metrics.inc m_bland
      end;
      let entering = ref (-1) in
      if use_bland then (
        try
          for j = 0 to max_col - 1 do
            if Rat.sign t.obj.(j) < 0 then begin
              entering := j;
              raise Exit
            end
          done
        with Exit -> ())
      else begin
        let best = ref q0 in
        for j = 0 to max_col - 1 do
          if Rat.lt t.obj.(j) !best then begin
            best := t.obj.(j);
            entering := j
          end
        done
      end;
      if !entering < 0 then `Optimal
      else begin
        let c = !entering in
        let best_row = ref (-1) in
        let best_ratio = ref q0 in
        for i = 0 to m - 1 do
          let a = t.rows.(i).(c) in
          if Rat.sign a > 0 then begin
            let ratio = Rat.div t.rows.(i).(t.ncols) a in
            if
              !best_row < 0
              || Rat.lt ratio !best_ratio
              || (Rat.equal ratio !best_ratio
                 && t.basis.(i) < t.basis.(!best_row))
            then begin
              best_row := i;
              best_ratio := ratio
            end
          end
        done;
        if !best_row < 0 then `Unbounded
        else begin
          pivot t !best_row c;
          incr pivots;
          (match budget with Some b -> Resil.Budget.charge b 1 | None -> ());
          loop ()
        end
      end
    in
    loop ()

  let solve_std ?budget sf =
    let m = Array.length sf.srows in
    let slack_start = sf.nstruct in
    let art_start = sf.nstruct + sf.n_slack in
    let ncols = sf.nstruct + sf.n_slack + sf.n_art in
    let t =
      {
        rows = Array.init m (fun _ -> Array.make (ncols + 1) q0);
        obj = Array.make (ncols + 1) q0;
        basis = Array.make m (-1);
        ncols;
        art_start;
        pivots = 0;
      }
    in
    let slack_next = ref slack_start and art_next = ref art_start in
    Array.iteri
      (fun i r ->
        let row = t.rows.(i) in
        List.iter (fun (c, q) -> row.(c) <- q) r.coeffs;
        row.(ncols) <- r.rhs;
        match r.rel with
        | Problem.Le ->
          let s = !slack_next in
          incr slack_next;
          row.(s) <- q1;
          t.basis.(i) <- s
        | Problem.Ge ->
          let s = !slack_next in
          incr slack_next;
          row.(s) <- Rat.neg q1;
          let a = !art_next in
          incr art_next;
          row.(a) <- q1;
          t.basis.(i) <- a
        | Problem.Eq ->
          let a = !art_next in
          incr art_next;
          row.(a) <- q1;
          t.basis.(i) <- a)
      sf.srows;
    let has_artificials = sf.n_art > 0 in
    let phase1_result =
      if not has_artificials then `Optimal
      else begin
        Array.fill t.obj 0 (ncols + 1) q0;
        for j = art_start to ncols - 1 do
          t.obj.(j) <- q1
        done;
        for i = 0 to m - 1 do
          if t.basis.(i) >= art_start then
            for j = 0 to ncols do
              t.obj.(j) <- Rat.sub t.obj.(j) t.rows.(i).(j)
            done
        done;
        run_phase ?budget t ~max_col:art_start
      end
    in
    match phase1_result with
    | `Unbounded -> assert false
    | `Optimal ->
      let phase1_obj = Rat.neg t.obj.(ncols) in
      if has_artificials && Rat.sign phase1_obj > 0 then Solution.Infeasible
      else begin
        for i = 0 to m - 1 do
          if t.basis.(i) >= art_start then begin
            let found = ref (-1) in
            (try
               for j = 0 to art_start - 1 do
                 if not (Rat.is_zero t.rows.(i).(j)) then begin
                   found := j;
                   raise Exit
                 end
               done
             with Exit -> ());
            if !found >= 0 then pivot t i !found
          end
        done;
        Array.fill t.obj 0 (ncols + 1) q0;
        List.iter (fun (c, q) -> t.obj.(c) <- Rat.add t.obj.(c) q) sf.ocoeffs;
        for i = 0 to m - 1 do
          let cb = t.obj.(t.basis.(i)) in
          if not (Rat.is_zero cb) then
            for j = 0 to ncols do
              t.obj.(j) <- Rat.sub t.obj.(j) (Rat.mul cb t.rows.(i).(j))
            done
        done;
        (match run_phase ?budget t ~max_col:art_start with
        | `Unbounded -> Solution.Unbounded
        | `Optimal ->
          let colval = Array.make ncols q0 in
          for i = 0 to m - 1 do
            if t.basis.(i) < ncols then
              colval.(t.basis.(i)) <- t.rows.(i).(ncols)
          done;
          let values = extract_values sf colval in
          let z_std = Rat.add (Rat.neg t.obj.(ncols)) sf.oconst in
          let objective =
            match sf.dir with
            | `Minimize -> z_std
            | `Maximize -> Rat.neg z_std
          in
          let nnz =
            Array.fold_left
              (fun acc row ->
                Array.fold_left
                  (fun acc x -> if Rat.is_zero x then acc else acc + 1)
                  acc row)
              0 t.rows
          in
          Solution.Optimal
            {
              values;
              objective;
              lp =
                {
                  Solution.pivots = t.pivots;
                  tableau_rows = m;
                  tableau_cols = ncols + 1;
                  max_nnz = nnz;
                  final_nnz = nnz;
                  dense_rows = m;
                };
            })
      end
end

(* ---------- public API ---------- *)

let record_stats stats s =
  match stats with
  | None -> ()
  | Some r -> r := Solution.add_lp_stats !r s

let solve_with_bounds ?budget ?stats problem ~lb ~ub =
  match build_std problem ~lb ~ub with
  | None -> Solution.Infeasible
  | Some sf ->
    let outcome, st = solve_std_sparse ?budget sf in
    Solution.record_to_registry st;
    record_stats stats st;
    outcome

let solve problem =
  let n = Problem.num_vars problem in
  let lb = Array.init n (Problem.var_lb problem) in
  let ub = Array.init n (Problem.var_ub problem) in
  solve_with_bounds problem ~lb ~ub

let feasible_with_bounds ?budget ?stats problem ~lb ~ub =
  match build_std problem ~lb ~ub with
  | None -> `Infeasible
  | Some sf ->
    (* Feasibility needs phase 1 only: with the objective stripped to a
       constant, phase 2 prices an all-zero cost row and performs zero
       pivots, so the solve cost is exactly the phase-1 search. *)
    let sf = { sf with ocoeffs = []; oconst = Rat.zero } in
    let outcome, st = solve_std_sparse ?budget sf in
    Solution.record_to_registry st;
    record_stats stats st;
    (match outcome with
    | Solution.Infeasible -> `Infeasible
    | Solution.Optimal _ | Solution.Unbounded -> `Feasible
    | Solution.Budget_exhausted _ -> `Unknown)

let solve_with_bounds_reference ?budget ?stats problem ~lb ~ub =
  match build_std problem ~lb ~ub with
  | None -> Solution.Infeasible
  | Some sf -> (
    let outcome =
      try Dense_core.solve_std ?budget sf
      with Pivot_limit -> Solution.Budget_exhausted None
    in
    (match outcome with
    | Solution.Optimal sol ->
      Solution.record_to_registry sol.Solution.lp;
      record_stats stats sol.Solution.lp
    | _ -> ());
    outcome)

let solve_reference problem =
  let n = Problem.num_vars problem in
  let lb = Array.init n (Problem.var_lb problem) in
  let ub = Array.init n (Problem.var_ub problem) in
  solve_with_bounds_reference problem ~lb ~ub
