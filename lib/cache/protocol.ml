(* Wire protocol for [streamit_gpu serve]: newline-delimited JSON.

   One request object per line in, one response object per line out,
   in request order.  The repo already has a JSON *writer*
   ([Obs.Report]); this module adds the minimal reader the daemon
   needs — objects, arrays, strings, numbers, booleans, null — plus
   the typed request/response layer.

   The reader is hardened for a long-lived daemon fed by untrusted
   clients: duplicate object keys, non-finite numbers (1e999 parses to
   infinity and would silently coerce) and invalid UTF-8 inside
   strings are all rejected — the last matters because request ids are
   echoed back verbatim, and echoing invalid UTF-8 would make the
   daemon emit invalid JSON.  Typed fields are strict: a present field
   of the wrong type is an error, never silently ignored.  Input lines
   are read through {!read_bounded_line}, so one huge line costs a
   bounded buffer and a one-line error response, not an OOM.

   Request schema (all fields optional unless noted):
     {"op": "compile" | "stats" | "ping" | "shutdown", // default "compile"
      "id": <any json, echoed back verbatim>,
      "program": "<builtin benchmark name>",       // one of program/src
      "src": "<inline .str source>",               //   required for compile
      "num_sms": N, "coarsening": N, "scheme": "SWP"|"SWPNC",
      "budget": N, "deadline": SECONDS, "lns_rounds": N,
      "target": "cuda"|"wgsl"|"opencl"|"metal",    // default "cuda"
      "warm": bool,                                // default true
      "artifacts": ["schedule","layout","kernel","report"]}  // default none

   "kernel" selects the entry's kernel source, printed for the
   request's target.

   "deadline" is a per-request wall-clock bound in seconds; results
   compiled under one are returned but never cached (Service's taint
   rule), since a deadline can shape the artifact nondeterministically.

   Response: {"id": ..., "status": "ok"|"error", and for ok compiles
   "cache": "hit"|"miss"|"incremental", "key", "ii", "quality",
   "signature", plus any requested artifacts inline as strings}.  A
   request shed by admission control answers
   {"id": ..., "status": "error", "error": "overloaded: ...",
    "retry_after_ms": N}. *)

module J = Obs.Report

exception Parse_error of string

(* --- UTF-8 validation --- *)

(* Strict validation (rejects overlongs and surrogates): the daemon
   echoes string fields back, so accepting invalid UTF-8 here would
   mean emitting it later. *)
let utf8_valid s =
  let n = String.length s in
  let byte i = Char.code s.[i] in
  let cont i = i < n && byte i land 0xC0 = 0x80 in
  let rec go i =
    if i >= n then true
    else
      let c = byte i in
      if c < 0x80 then go (i + 1)
      else if c < 0xC2 then false (* bare continuation or overlong lead *)
      else if c < 0xE0 then cont (i + 1) && go (i + 2)
      else if c < 0xF0 then
        let b1_ok =
          i + 1 < n
          &&
          let b1 = byte (i + 1) in
          if c = 0xE0 then b1 >= 0xA0 && b1 <= 0xBF (* no overlongs *)
          else if c = 0xED then b1 >= 0x80 && b1 <= 0x9F (* no surrogates *)
          else b1 land 0xC0 = 0x80
        in
        b1_ok && cont (i + 2) && go (i + 3)
      else if c < 0xF5 then
        let b1_ok =
          i + 1 < n
          &&
          let b1 = byte (i + 1) in
          if c = 0xF0 then b1 >= 0x90 && b1 <= 0xBF
          else if c = 0xF4 then b1 >= 0x80 && b1 <= 0x8F (* <= U+10FFFF *)
          else b1 land 0xC0 = 0x80
        in
        b1_ok && cont (i + 2) && cont (i + 3) && go (i + 4)
      else false
  in
  go 0

(* --- reader --- *)

let parse (s : string) : J.t =
  if Resil.Inject.hit "protocol.decode" then
    raise (Parse_error "injected fault: protocol.decode");
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then fail "unterminated escape";
         match s.[!pos] with
         | '"' -> Buffer.add_char b '"'; advance ()
         | '\\' -> Buffer.add_char b '\\'; advance ()
         | '/' -> Buffer.add_char b '/'; advance ()
         | 'n' -> Buffer.add_char b '\n'; advance ()
         | 'r' -> Buffer.add_char b '\r'; advance ()
         | 't' -> Buffer.add_char b '\t'; advance ()
         | 'b' -> Buffer.add_char b '\b'; advance ()
         | 'f' -> Buffer.add_char b '\012'; advance ()
         | 'u' ->
           if !pos + 4 >= n then fail "truncated \\u escape";
           let hex = String.sub s (!pos + 1) 4 in
           let code =
             match int_of_string_opt ("0x" ^ hex) with
             | Some c -> c
             | None -> fail "bad \\u escape"
           in
           (* Encode the code point as UTF-8; surrogate pairs are rare
              enough in compiler requests that the BMP suffices. *)
           if code < 0x80 then Buffer.add_char b (Char.chr code)
           else if code < 0x800 then begin
             Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
             Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
           end
           else begin
             Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
             Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
             Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
           end;
           pos := !pos + 5
         | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
        go ()
      | c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    let out = Buffer.contents b in
    if not (utf8_valid out) then fail "invalid UTF-8 in string";
    out
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> J.Int i
    | None -> (
      match float_of_string_opt text with
      | Some f when Float.is_finite f -> J.Float f
      | Some _ -> fail ("number out of range " ^ text)
      | None -> fail ("bad number " ^ text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        J.Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          (* Duplicate keys are a classic smuggling vector (readers
             disagree on which copy wins); refuse them outright. *)
          if List.mem_assoc k acc then fail (Printf.sprintf "duplicate key %S" k);
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        J.Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        J.Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        J.Arr (elements [])
      end
    | Some '"' -> J.Str (parse_string ())
    | Some 't' -> literal "true" (J.Bool true)
    | Some 'f' -> literal "false" (J.Bool false)
    | Some 'n' -> literal "null" J.Null
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* --- bounded line reads --- *)

type read_result = Line of string | Truncated | Eof

let read_bounded_line ~max_bytes ic =
  let b = Buffer.create 256 in
  (* Over-limit: stop buffering but keep consuming to the newline, so
     the stream stays line-synchronized and the next request parses. *)
  let rec discard () =
    match input_char ic with
    | '\n' -> Truncated
    | _ -> discard ()
    | exception End_of_file -> Truncated
  in
  let rec go () =
    match input_char ic with
    | '\n' -> Line (Buffer.contents b)
    | c ->
      if Buffer.length b >= max_bytes then discard ()
      else begin
        Buffer.add_char b c;
        go ()
      end
    | exception End_of_file ->
      if Buffer.length b = 0 then Eof else Line (Buffer.contents b)
  in
  go ()

(* --- typed requests --- *)

type op = Compile | Stats | Ping | Shutdown

type request = {
  id : J.t option;
  op : op;
  program : string option;
  src : string option;
  num_sms : int option;
  coarsening : int;
  scheme : Swp_core.Compile.scheme;
  budget : int option;
  deadline : float option;
  lns_rounds : int option;
  target : Kir.Ir.target;
  warm : bool;
  artifacts : string list;
}

let ( let* ) = Result.bind

(* Strict extraction: absent is fine, the wrong type is an error — a
   request that says {"budget": 1e23} meant *something*, and silently
   compiling without a budget is the wrong answer. *)
let typed doc name conv expect =
  match J.member name doc with
  | None -> Ok None
  | Some v -> (
    match conv v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "%s must be %s" name expect))

let str_field doc name =
  typed doc name (function J.Str s -> Some s | _ -> None) "a string"

let int_field doc name =
  typed doc name (function J.Int i -> Some i | _ -> None) "an integer"

let bool_field doc name =
  typed doc name (function J.Bool b -> Some b | _ -> None) "a boolean"

let num_field doc name =
  typed doc name
    (function J.Int i -> Some (float_of_int i) | J.Float f -> Some f | _ -> None)
    "a number"

let request_of_json doc =
  match doc with
  | J.Obj _ ->
    let* op =
      match J.member "op" doc with
      | None | Some (J.Str "compile") -> Ok Compile
      | Some (J.Str "stats") -> Ok Stats
      | Some (J.Str "ping") -> Ok Ping
      | Some (J.Str "shutdown") -> Ok Shutdown
      | Some (J.Str other) -> Error (Printf.sprintf "unknown op %S" other)
      | Some _ -> Error "op must be a string"
    in
    let* scheme =
      match J.member "scheme" doc with
      | None | Some (J.Str "SWP") -> Ok Swp_core.Compile.Swp_coalesced
      | Some (J.Str "SWPNC") -> Ok Swp_core.Compile.Swp_non_coalesced
      | Some (J.Str other) -> Error (Printf.sprintf "unknown scheme %S" other)
      | Some _ -> Error "scheme must be a string"
    in
    let* target =
      match J.member "target" doc with
      | None -> Ok Kir.Ir.Cuda
      | Some (J.Str s) -> (
        match Kir.Ir.target_of_string s with
        | Some t -> Ok t
        | None -> Error (Printf.sprintf "unknown target %S" s))
      | Some _ -> Error "target must be a string"
    in
    let* artifacts =
      match J.member "artifacts" doc with
      | Some (J.Arr xs) ->
        List.fold_left
          (fun acc x ->
            Result.bind acc (fun acc ->
                match x with
                | J.Str
                    (("schedule" | "layout" | "kernel" | "report")
                    as a) ->
                  Ok (a :: acc)
                | J.Str other ->
                  Error (Printf.sprintf "unknown artifact %S" other)
                | _ -> Error "artifacts must be strings"))
          (Ok []) xs
        |> Result.map List.rev
      | None -> Ok []
      | Some _ -> Error "artifacts must be an array"
    in
    let* program = str_field doc "program" in
    let* src = str_field doc "src" in
    let* num_sms = int_field doc "num_sms" in
    let* coarsening = int_field doc "coarsening" in
    let* budget = int_field doc "budget" in
    let* deadline = num_field doc "deadline" in
    let* lns_rounds = int_field doc "lns_rounds" in
    let* warm = bool_field doc "warm" in
    Ok
      {
        id = J.member "id" doc;
        op;
        program;
        src;
        num_sms;
        coarsening = Option.value coarsening ~default:1;
        scheme;
        budget;
        deadline;
        lns_rounds;
        target;
        warm = Option.value warm ~default:true;
        artifacts;
      }
  | _ -> Error "request must be a JSON object"

let parse_request line =
  match parse line with
  | exception Parse_error m -> Error ("invalid JSON: " ^ m)
  | doc -> request_of_json doc

(* --- responses --- *)

let id_field r = [ ("id", Option.value r.id ~default:J.Null) ]

let resolve_id ?req ?id () =
  (* [req] when the request parsed; bare [id] when only the raw JSON
     did (clients correlate responses by id either way). *)
  match (req, id) with
  | Some r, _ -> Option.value r.id ~default:J.Null
  | None, Some v -> v
  | None, None -> J.Null

let error_response ?req ?id message =
  J.to_string
    (J.Obj
       [
         ("id", resolve_id ?req ?id ());
         ("status", J.Str "error");
         ("error", J.Str message);
       ])

let overloaded_response ?req ?id ~reason ~retry_after_ms () =
  (* The shed path must stay deterministic under a fixed admission
     state: same request order, same sheds, same hints. *)
  J.to_string
    (J.Obj
       [
         ("id", resolve_id ?req ?id ());
         ("status", J.Str "error");
         ("error", J.Str ("overloaded: " ^ reason));
         ("retry_after_ms", J.Int retry_after_ms);
       ])

let ok_response req (e : Store.entry) (outcome : Service.outcome) =
  let artifact name body =
    if List.mem name req.artifacts then [ (name, J.Str body) ] else []
  in
  J.to_string
    (J.Obj
       (id_field req
       @ [
           ("status", J.Str "ok");
           ("cache", J.Str (Service.outcome_name outcome));
           ("key", J.Str e.Store.key);
           ("ii", J.Int e.Store.ii);
           ("quality", J.Str e.Store.quality);
           ("signature", J.Str e.Store.signature);
         ]
       @ artifact "schedule" e.Store.schedule
       @ artifact "layout" e.Store.layout
       @ artifact "kernel" e.Store.kernel
       @ artifact "report" e.Store.report))

let shutdown_response ?(drain = []) req =
  J.to_string
    (J.Obj
       (id_field req @ [ ("status", J.Str "ok"); ("bye", J.Bool true) ] @ drain))
