type value = Int of int | Float of float | Str of string | Bool of bool

type span = {
  name : string;
  start_us : float;
  mutable end_us : float;
  mutable attrs : (string * value) list;
  mutable children : span list;
}

let enabled = ref false
let default_clock () = Unix.gettimeofday () *. 1e6
let clock = ref default_clock

(* Every domain records into its own sink: an open-span stack (innermost
   first) plus a buffer of completed roots.  Spans are created, mutated
   and closed entirely on their owning domain, so the only shared state
   is the registry of per-domain buffers (mutex-guarded, touched once
   per domain) and the root sequence counter (atomic).  Export merges
   the buffers and orders roots by completion sequence, which for a
   single domain coincides with the pre-domains behaviour exactly.

   Children are accumulated in reverse and flipped once the span closes,
   so an exported span's [children] are always in start order. *)

type sink = {
  tid : int;  (* stable per-domain lane for the Chrome export *)
  mutable stack : span list;
  mutable finished : (int * span) list;  (* (completion seq, root) *)
}

let sinks : sink list ref = ref []
let sinks_m = Mutex.create ()
let next_tid = Atomic.make 1
let root_seq = Atomic.make 0

let sink_key : sink Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s =
        { tid = Atomic.fetch_and_add next_tid 1; stack = []; finished = [] }
      in
      Mutex.lock sinks_m;
      sinks := s :: !sinks;
      Mutex.unlock sinks_m;
      s)

let my_sink () = Domain.DLS.get sink_key

let enable () = enabled := true
let disable () = enabled := false
let is_enabled () = !enabled

let reset () =
  (* Clears every domain's completed roots, but only the calling
     domain's open stack — other domains' stacks are theirs alone. *)
  let s = my_sink () in
  s.stack <- [];
  Mutex.lock sinks_m;
  List.iter (fun s -> s.finished <- []) !sinks;
  Mutex.unlock sinks_m

let set_clock f = clock := f
let use_default_clock () = clock := default_clock

let add_attr k v =
  if !enabled then
    match (my_sink ()).stack with
    | [] -> ()
    | s :: _ -> s.attrs <- s.attrs @ [ (k, v) ]

let with_span ?(attrs = []) name f =
  if not !enabled then f ()
  else begin
    let sink = my_sink () in
    let s =
      { name; start_us = !clock (); end_us = 0.0; attrs; children = [] }
    in
    sink.stack <- s :: sink.stack;
    let close () =
      s.end_us <- !clock ();
      s.children <- List.rev s.children;
      (match sink.stack with
      | top :: rest when top == s -> sink.stack <- rest
      | _ -> () (* reset was called mid-span; drop silently *));
      match sink.stack with
      | [] ->
        sink.finished <- (Atomic.fetch_and_add root_seq 1, s) :: sink.finished
      | parent :: _ -> parent.children <- s :: parent.children
    in
    Fun.protect ~finally:close f
  end

(* Merged completed roots from all domains, as [(tid, seq, span)] in
   completion order. *)
let merged () =
  let all =
    Mutex.lock sinks_m;
    let l =
      List.concat_map
        (fun s -> List.map (fun (seq, sp) -> (s.tid, seq, sp)) s.finished)
        !sinks
    in
    Mutex.unlock sinks_m;
    l
  in
  List.sort (fun (_, a, _) (_, b, _) -> compare a b) all

let roots () = List.map (fun (_, _, s) -> s) (merged ())

let find_all name =
  let out = ref [] in
  let rec walk s =
    if s.name = name then out := s :: !out;
    List.iter walk s.children
  in
  List.iter walk (roots ());
  List.rev !out

(* ---------- export ---------- *)

let json_of_value = function
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else Printf.sprintf "%.6g" f
  | Str s -> "\"" ^ Report.escape s ^ "\""
  | Bool b -> if b then "true" else "false"

let to_chrome_json () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let rec emit tid s =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b
      (Printf.sprintf
         "{\"name\":\"%s\",\"cat\":\"pipeline\",\"ph\":\"X\",\"ts\":%.1f,\
          \"dur\":%.1f,\"pid\":1,\"tid\":%d"
         (Report.escape s.name) s.start_us
         (s.end_us -. s.start_us)
         tid);
    if s.attrs <> [] then begin
      Buffer.add_string b ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "\"%s\":%s" (Report.escape k) (json_of_value v)))
        s.attrs;
      Buffer.add_char b '}'
    end;
    Buffer.add_char b '}';
    List.iter (emit tid) s.children
  in
  List.iter (fun (tid, _, s) -> emit tid s) (merged ());
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents b

let pp_tree fmt () =
  let rec pp depth s =
    Format.fprintf fmt "%s%-*s %10.0f us" (String.make (2 * depth) ' ')
      (max 1 (30 - (2 * depth)))
      s.name
      (s.end_us -. s.start_us);
    List.iter
      (fun (k, v) ->
        Format.fprintf fmt " %s=%s" k
          (match v with
          | Int i -> string_of_int i
          | Float f -> Printf.sprintf "%g" f
          | Str s -> s
          | Bool b -> string_of_bool b))
      s.attrs;
    Format.fprintf fmt "@.";
    List.iter (pp (depth + 1)) s.children
  in
  List.iter (pp 0) (roots ())
