(* Per-backend structural linter.

   No GPU toolchain exists in CI, so the emitted kernels can never be
   compiled there.  This linter is the cheap stand-in: it rejects the
   classes of printer bugs that survive the KIR-eval oracle — the
   oracle checks the lowering, not the printed text:

   - unbalanced braces / parens / brackets (after stripping comments
     and literals);
   - program-level names (work functions, region helpers, channel
     buffers) used before their declaration, or declared more than
     once (the gensym-collision class);
   - a barrier inside [tid]-dependent control flow — fatal on WGSL
     (uniform-control-flow is a hard validation rule) and a deadlock
     on the other three, so it is enforced for every target;
   - the kernel must contain at least one barrier (the staging
     predicate handoff cannot be correct without one).

   After [strip] and [check_balance], the kernel is read in one pass
   over its tokens: a token is a maximal run of identifier bytes, or
   any other non-blank byte on its own.  The pass keeps only byte
   offsets, and every per-target difference lives in [dialect]. *)

(* A declaration shape: the tokens before and after the declared name. *)
type decl = string list * string list

type dialect = { barrier : string; fn : decl; region : decl; buffer : decl }

let dialect t =
  let cfam barrier buffer =
    { barrier; fn = ([ "void" ], [ "(" ]); region = ([ "int" ], [ "(" ]);
      buffer = (buffer, []) }
  in
  match t with
  | Ir.Cuda -> cfam "__syncthreads" [ "float"; "*" ]
  | Ir.Opencl -> cfam "barrier" [ "__global"; "float"; "*" ]
  | Ir.Metal -> cfam "threadgroup_barrier" [ "device"; "float"; "*" ]
  | Ir.Wgsl ->
    { barrier = "workgroupBarrier"; fn = ([ "fn" ], [ "(" ]);
      region = ([ "fn" ], [ "(" ]); buffer = ([ ">" ], [ ":" ]) }

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_'

let is_blank c = c <= ' '

(* Blank out comments and string/char literals, preserving length and
   newlines so positions stay meaningful. *)
let strip src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let i = ref 0 in
  let blank j = if Bytes.get out j <> '\n' then Bytes.set out j ' ' in
  while !i < n do
    let c = src.[!i] in
    if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do
        blank !i;
        incr i
      done
    end
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      blank !i;
      blank (!i + 1);
      i := !i + 2;
      let closed = ref false in
      while (not !closed) && !i < n do
        if src.[!i] = '*' && !i + 1 < n && src.[!i + 1] = '/' then begin
          blank !i;
          blank (!i + 1);
          i := !i + 2;
          closed := true
        end
        else begin
          blank !i;
          incr i
        end
      done
    end
    else if c = '"' || c = '\'' then begin
      let quote = c in
      blank !i;
      incr i;
      let closed = ref false in
      while (not !closed) && !i < n do
        if src.[!i] = '\\' && !i + 1 < n then begin
          blank !i;
          blank (!i + 1);
          i := !i + 2
        end
        else if src.[!i] = quote then begin
          blank !i;
          incr i;
          closed := true
        end
        else begin
          blank !i;
          incr i
        end
      done
    end
    else incr i
  done;
  Bytes.to_string out

let check_balance src =
  let stack = ref [] in
  let err = ref None in
  String.iteri
    (fun pos c ->
      if !err = None then
        match c with
        | '{' | '(' | '[' -> stack := (c, pos) :: !stack
        | '}' | ')' | ']' -> (
          let opener = match c with '}' -> '{' | ')' -> '(' | _ -> '[' in
          match !stack with
          | (o, _) :: rest when o = opener -> stack := rest
          | _ -> err := Some (Printf.sprintf "unbalanced '%c' at byte %d" c pos))
        | _ -> ())
    src;
  match (!err, !stack) with
  | Some e, _ -> Error e
  | None, (o, pos) :: _ ->
    Error (Printf.sprintf "unclosed '%c' opened at byte %d" o pos)
  | None, [] -> Ok ()

(* Token boundaries: the end of the token starting at non-blank [i],
   and the start of the token ending at [e]. *)
let token_end s i =
  let j = ref (i + 1) in
  if is_ident_char s.[i] then
    while !j < String.length s && is_ident_char s.[!j] do incr j done;
  !j

let token_start s e =
  let j = ref (e - 1) in
  if is_ident_char s.[!j] then
    while !j > 0 && is_ident_char s.[!j - 1] do decr j done;
  !j

(* The token [s.[i..e)] spells [w]. *)
let is s i e w =
  e - i = String.length w
  && let rec go k = k = e - i || (s.[i + k] = w.[k] && go (k + 1)) in go 0

(* The tokens from byte [i] on spell [ws]; the tokens before byte [e]
   spell [ws] nearest first. *)
let rec next s i = function
  | [] -> true
  | w :: ws ->
    let i = ref i in
    while !i < String.length s && is_blank s.[!i] do incr i done;
    !i < String.length s && (let e = token_end s !i in is s !i e w && next s e ws)

let rec prev s e = function
  | [] -> true
  | w :: ws ->
    let e = ref e in
    while !e > 0 && is_blank s.[!e - 1] do decr e done;
    !e > 0 && (let i = token_start s !e in is s i !e w && prev s i ws)

(* After the balance check, one pass over the tokens counts barriers,
   records each program-level name's first use and declarations, and
   walks barrier uniformity: every open brace carries a guard bit, set
   when its [if]/[for]/[while] header mentions [tid].  A header ends at
   the first [{] or [;] outside parentheses, so [for (i = tid; ...)] is
   read whole.  [else] and [else if] inherit the guard of the branch
   they follow, and a brace-less body is checked up to its [;]. *)
let check (target : Ir.target) (p : Ir.program) src =
  let s = strip src in
  let d = dialect target in
  let ( let* ) = Result.bind in
  let* () = check_balance s in
  (* the CUDA/Metal host code re-declares buffer names (cudaMalloc /
     newBuffer), so uniqueness is only enforced for functions *)
  let names =
    Array.of_list
      (List.map (fun (w : Ir.work_fn) -> (w.Ir.w_name, d.fn, true)) p.Ir.work_fns
      @ List.map
          (fun (v, _) -> (Printf.sprintf "region_%d" v, d.region, true))
          p.Ir.regions
      @ List.map
          (fun (b : Ir.buffer) -> (b.Ir.b_name, d.buffer, false))
          (Array.to_list p.Ir.buffers))
  in
  let m = Array.length names in
  let tbl = Hashtbl.create m in
  Array.iteri (fun k (name, _, _) -> Hashtbl.add tbl name k) names;
  let first_use = Array.make m (-1) and first_is_decl = Array.make m false in
  let decls = Array.make m 0 in
  let barriers = ref 0 and err = ref None in
  let fail fmt = Printf.ksprintf (fun e -> if !err = None then err := Some e) fmt in
  let stack = ref [] and last = ref false in
  (* the open header: start byte (-1 when none), guard, paren depth,
     whether it holds a barrier, and whether it is still a bare [else] *)
  let hdr = ref (-1) and guard = ref false and depth = ref 0 in
  let hdr_barrier = ref false and bare_else = ref false in
  let open_header i g =
    hdr := i;
    guard := g;
    depth := 0;
    hdr_barrier := false
  in
  let guarded () = List.exists Fun.id !stack in
  let i = ref 0 in
  while !i < String.length s do
    if is_blank s.[!i] then incr i
    else begin
      let i0 = !i and e = token_end s !i in
      let c = s.[i0] in
      let kw = is s i0 e "if" || is s i0 e "for" || is s i0 e "while" in
      if is s i0 e d.barrier then begin
        incr barriers;
        if !hdr >= 0 then hdr_barrier := true
        else if guarded () then
          fail "%s inside tid-dependent control flow at byte %d" d.barrier i0
      end;
      if !hdr >= 0 then begin
        if kw && !bare_else then hdr := i0
        else if c = '(' then incr depth
        else if c = ')' then decr depth
        else if !depth = 0 && (c = '{' || c = ';') then begin
          if !hdr_barrier && (!guard || guarded ()) then
            fail "%s under tid-dependent guard at byte %d" d.barrier !hdr;
          if c = '{' then stack := !guard :: !stack else last := !guard;
          hdr := -1
        end
        else if is s i0 e "tid" then guard := true;
        bare_else := false
      end
      else if kw then open_header i0 false
      else if is s i0 e "else" then (open_header i0 !last; bare_else := true)
      else if c = '{' then stack := false :: !stack
      else if c = '}' then (
        match !stack with
        | top :: rest -> last := top; stack := rest
        | [] -> ());
      if is_ident_char c then
        List.iter
          (fun k ->
            let _, (before, after), _ = names.(k) in
            let at_decl = prev s i0 (List.rev before) && next s e after in
            if first_use.(k) < 0 then begin
              first_use.(k) <- i0;
              first_is_decl.(k) <- at_decl
            end;
            if at_decl then decls.(k) <- decls.(k) + 1)
          (Hashtbl.find_all tbl (String.sub s i0 (e - i0)));
      i := e
    end
  done;
  let* () =
    if !barriers = 0 then Error (Printf.sprintf "no %s in kernel" d.barrier)
    else Ok ()
  in
  let* () = match !err with Some e -> Error e | None -> Ok () in
  let rec names_ok k =
    if k = m then Ok ()
    else
      let name, _, unique = names.(k) in
      if first_use.(k) < 0 then Error (Printf.sprintf "%s never appears" name)
      else if decls.(k) = 0 then
        Error (Printf.sprintf "%s has no declaration" name)
      else if not first_is_decl.(k) then
        Error (Printf.sprintf "%s used before its declaration" name)
      else if unique && decls.(k) > 1 then
        Error (Printf.sprintf "%s declared %d times" name decls.(k))
      else names_ok (k + 1)
  in
  names_ok 0

let check_err target p src =
  match check target p src with
  | Ok () -> Ok ()
  | Error e -> Error (Printf.sprintf "%s: %s" (Ir.target_name target) e)
