(* The four workloads.  Each is a single closed loop with one caller: the
   runner starts an op only after the previous one returned, on one
   domain ([Par.Pool] stays at its default width of 1).

   [make name ~seed] is the set-up: it builds every input from the seed
   and then runs the workload's untimed warm-up steps, so the heap and
   the caches the workload keeps settle before anything is timed. *)

module L = Layers
module Compile = Swp_core.Compile
module Registry = Benchmarks.Registry

(* One step of a pass. *)
type step =
  | Op of int  (** a timed operation on an input *)
  | Restart of (unit -> unit)
      (** timed work of the system between ops that is not an op: a
          serve daemon re-created on its cache directory *)
  | Reset of (unit -> unit)
      (** untimed: puts the process in the state a new CLI process or a
          new daemon starts in *)

type outcome = {
  check : unit -> (unit, string) result;
      (** verifies the op's output; runs after the clock stopped *)
  facts : (string * float) list;
      (** per-op values read from public return values *)
}

type t = {
  labels : string array;  (** one per distinct input *)
  next_pass : unit -> step list;
  warm : step list;
  op : traced:bool -> int -> outcome;
  cleanup : unit -> unit;
}

let arch = Gpusim.Arch.geforce_8800_gts_512
let failed m = { check = (fun () -> Error m); facts = [] }

(* An op that raises is a failed op, not a failed run. *)
let run_op w ~traced i =
  match w.op ~traced i with o -> o | exception e -> failed (Printexc.to_string e)

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* An II search whose exact attempts ran for half the per-attempt wall
   clock cap or more may have been cut short by it, so its work counts
   depend on the host's speed. *)
let wall_capped (st : Swp_core.Ii_search.stats) =
  match Swp_core.Ii_search.default_budget.Swp_core.Ii_search.auto_time_s with
  | None -> false
  | Some cap ->
    List.exists
      (fun (a : Swp_core.Ii_search.attempt) ->
        a.Swp_core.Ii_search.tried_exact && a.Swp_core.Ii_search.solve_time_s >= cap /. 2.0)
      st.Swp_core.Ii_search.attempt_log

(* Facts every compiling op reports, from [Compile.compiled] alone. *)
let compile_facts (c : Compile.compiled) =
  let st = c.Compile.search_stats in
  let lb = st.Swp_core.Ii_search.lower_bound in
  List.concat_map
    (fun (s : Compile.stage_spend) ->
      [
        ("swp_core." ^ s.Compile.stage ^ "_ms", 1000.0 *. s.Compile.wall_s);
        ("swp_core." ^ s.Compile.stage ^ "_work", float_of_int s.Compile.work);
      ])
    c.Compile.prov.Compile.stage_spends
  @ [
      ("compiles", 1.0);
      ("swp_core.wall_capped", if wall_capped st then 1.0 else 0.0);
      ("swp_core.ii", float_of_int c.Compile.schedule.Swp_core.Swp_schedule.ii);
      ("swp_core.ii_attempts", float_of_int st.Swp_core.Ii_search.attempts);
      ( "swp_core.ii_gap_pct",
        if lb <= 0 then 0.0
        else
          100.0
          *. float_of_int (st.Swp_core.Ii_search.achieved_ii - lb)
          /. float_of_int lb );
    ]

(* What a new compiler process starts from: no memoized profiles and a
   compact heap.  Compacting also keeps the heap's high-water mark from
   depending on the seeded op order. *)
let fresh_process =
  Reset
    (fun () ->
      Swp_core.Profile.clear_cache ();
      Gc.compact ())

(* --- cold_compile --- *)

(* The in-process body of [streamit_gpu compile P --target T
   --coarsening 1]: every CLI call is a fresh process, so the profile
   memo is cleared before each op.  The traced op splits
   [Kir.Backend.emit_checked] into the same two calls it makes. *)
let cold_compile ~seed =
  let inputs =
    Array.of_list
      (List.concat_map
         (fun (e : Registry.entry) ->
           List.map (fun t -> (e, t)) Kir.Ir.all_targets)
         Registry.all)
  in
  let fixture (e : Registry.entry) t =
    Filename.concat "test/fixtures/codegen"
      (e.Registry.name ^ "." ^ Kir.Ir.target_ext t)
  in
  let expected =
    Array.map
      (fun (e, t) ->
        match read_file (fixture e t) with
        | s -> Ok s
        | exception Sys_error m -> Error m)
      inputs
  in
  let op ~traced i =
    let e, target = inputs.(i) in
    let stream = Obs.Trace.with_span L.construct e.Registry.stream in
    let graph =
      Obs.Trace.with_span L.flatten (fun () ->
          Result.map
            (fun () -> Streamit.Flatten.flatten stream)
            (Streamit.Ast.validate stream))
    in
    match graph with
    | Error m -> failed m
    | Ok g -> (
      match Obs.Trace.with_span L.compile (fun () -> Compile.compile ~coarsening:1 g) with
      | Error m -> failed m
      | Ok c ->
        (* the CLI prints this listing; here it is rendered and dropped *)
        ignore
          (Obs.Trace.with_span L.schedule_pp (fun () ->
               Format.asprintf "%a@.%a@.%a@." Compile.pp_summary c
                 (Format.pp_print_list Swp_core.Ii_search.pp_attempt)
                 c.Compile.search_stats.Swp_core.Ii_search.attempt_log
                 (Swp_core.Swp_schedule.pp g) c.Compile.schedule));
        let gt = Obs.Trace.with_span L.executor (fun () -> Swp_core.Executor.time_swp c) in
        let p = Obs.Trace.with_span L.lower (fun () -> Kir.Lower.lower c) in
        let src =
          if traced then
            let src = Obs.Trace.with_span L.emit (fun () -> Kir.Backend.emit target p) in
            Result.map (fun () -> src)
              (Obs.Trace.with_span L.lint (fun () -> Kir.Lint.check_err target p src))
          else Kir.Backend.emit_checked target p
        in
        let bytes = match src with Ok s -> String.length s | Error _ -> 0 in
        {
          check =
            (fun () ->
              match (src, expected.(i)) with
              | Error m, _ | _, Error m -> Error m
              | Ok s, Ok want when s = want -> Ok ()
              | Ok _, Ok _ ->
                Error ("kernel differs from " ^ fixture e target));
          facts =
            compile_facts c
            @ [
                ("kir.kernel_bytes", float_of_int bytes);
                ("swp_core.gpu_cycles", gt.Swp_core.Executor.cycles_per_steady);
              ];
        })
  in
  let st = Random.State.make [| seed |] in
  let order () = shuffle st (Array.init (Array.length inputs) Fun.id) in
  {
    labels =
      Array.map
        (fun ((e : Registry.entry), t) ->
          e.Registry.name ^ "/" ^ Kir.Ir.target_name t)
        inputs;
    next_pass =
      (fun () -> List.concat_map (fun i -> [ fresh_process; Op i ]) (Array.to_list (order ())));
    (* the libraries hold no lazy state, so one op settles the heap; one
       per input would cost a whole pass *)
    warm = [ fresh_process; Op 0 ];
    op;
    cleanup = ignore;
  }

(* --- sm_sweep --- *)

(* The body of [streamit_gpu sweep P --sms 2,4,8,16 -n 8] for one SM
   count.  SM counts run in CLI order after one memo clear per program,
   so the first count of each program pays for profiling whatever the
   seed; the seed only orders the programs. *)
let sweep_sms = [ 2; 4; 8; 16 ]

let sm_sweep ~seed =
  let programs =
    Array.of_list
      (List.map
         (fun (e : Registry.entry) ->
           (e.Registry.name, Streamit.Flatten.flatten (e.Registry.stream ())))
         Registry.all)
  in
  let n_sms = List.length sweep_sms in
  let inputs =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (name, g) -> Array.of_list (List.map (fun s -> (name, g, s)) sweep_sms))
            programs))
  in
  let op ~traced:_ i =
    let _, g, num_sms = inputs.(i) in
    match Obs.Trace.with_span L.compile (fun () -> Compile.compile ~num_sms ~coarsening:8 g) with
    | Error m -> failed m
    | Ok c ->
      let gt, speedup =
        Obs.Trace.with_span L.executor (fun () ->
            let gt = Swp_core.Executor.time_swp c in
            ( gt,
              Swp_core.Executor.speedup ~arch ~graph:g
                ~gpu_cycles_per_steady:gt.Swp_core.Executor.cycles_per_steady () ))
      in
      let sched = c.Compile.schedule in
      let lb = c.Compile.search_stats.Swp_core.Ii_search.lower_bound in
      {
        check =
          (fun () ->
            match (Swp_core.Swp_schedule.validate g sched, speedup) with
            | Error m, _ | _, Error m -> Error m
            | Ok (), Ok _ when sched.Swp_core.Swp_schedule.ii < lb ->
              Error
                (Printf.sprintf "II %d below its bound %d"
                   sched.Swp_core.Swp_schedule.ii lb)
            | Ok (), Ok _ when c.Compile.quality = Compile.Degraded ->
              Error "degraded schedule"
            | Ok (), Ok _ -> Ok ());
        facts =
          compile_facts c
          @ [ ("swp_core.gpu_cycles", gt.Swp_core.Executor.cycles_per_steady) ];
      }
  in
  let st = Random.State.make [| seed |] in
  {
    labels = Array.map (fun (name, _, s) -> Printf.sprintf "%s@%d" name s) inputs;
    next_pass =
      (fun () ->
        List.concat_map
          (fun p -> fresh_process :: List.init n_sms (fun k -> Op ((p * n_sms) + k)))
          (Array.to_list (shuffle st (Array.init (Array.length programs) Fun.id))));
    (* each program once, at its cheapest SM count *)
    warm =
      List.concat_map
        (fun p -> [ fresh_process; Op ((p * n_sms) + n_sms - 1) ])
        (List.init (Array.length programs) Fun.id);
    op;
    cleanup = ignore;
  }

(* --- serve workloads --- *)

(* What the binary's lookup does for builtin names. *)
let lookup_program name =
  match Registry.find name with
  | None -> Error ("unknown program " ^ name)
  | Some e -> (
    let stream = e.Registry.stream () in
    match Streamit.Ast.validate stream with
    | Error m -> Error ("invalid stream: " ^ m)
    | Ok () -> Ok (Streamit.Flatten.flatten stream))

let request_line fields =
  Obs.Report.to_string (Obs.Report.Obj (("op", Obs.Report.Str "compile") :: fields))

let artifacts = ("artifacts", Obs.Report.Arr [ Obs.Report.Str "kernel"; Obs.Report.Str "report" ])

(* One request line through the daemon.  Untraced, that is exactly
   [Daemon.handle_line]; traced, the same public calls in daemon order,
   each in its layer's span, plus one extra [Key.digest] (a pure
   function) so the key's share can be read off on its own. *)
let serve_line daemon ~traced line =
  if not traced then
    match Cache.Daemon.handle_line daemon line with
    | `Reply s -> s
    | `Shutdown s -> s
  else
    let module P = Cache.Protocol in
    match Obs.Trace.with_span L.parse_request (fun () -> P.parse_request line) with
    | Error m -> P.error_response m
    | Ok req -> (
      let graph =
        Obs.Trace.with_span L.graph_of_request (fun () -> Cache.Daemon.graph_of_request daemon req)
      in
      match (graph, Cache.Daemon.options_of_request req) with
      | Error m, _ | _, Error m -> P.error_response ~req m
      | Ok g, Ok opts -> (
        ignore (Obs.Trace.with_span L.digest (fun () -> Cache.Key.digest g opts));
        let got =
          Obs.Trace.with_span L.service_get (fun () ->
              let r =
                Cache.Service.get ~warm:req.P.warm ?deadline:req.P.deadline
                  (Cache.Daemon.service daemon) g opts
              in
              (match r with
              | Ok (_, o) ->
                Obs.Trace.add_attr "outcome" (Obs.Trace.Str (Cache.Service.outcome_name o))
              | Error _ -> ());
              r)
        in
        match got with
        | Error m -> P.error_response ~req m
        | Ok (e, o) -> Obs.Trace.with_span L.ok_response (fun () -> P.ok_response req e o)))

let str_field name reply =
  match Obs.Report.member name (Cache.Protocol.parse reply) with
  | Some (Obs.Report.Str s) -> Some s
  | _ | (exception Cache.Protocol.Parse_error _) -> None

(* --- serve_hot --- *)

(* Uniform picks over the 64 lines: a synthetic mix, not recorded
   traffic. *)
let hot_picks = 8000

let serve_hot ~seed =
  let lines =
    Array.of_list
      (List.concat_map
         (fun (e : Registry.entry) ->
           List.concat_map
             (fun t ->
               let base =
                 [
                   ("program", Obs.Report.Str e.Registry.name);
                   ("target", Obs.Report.Str (Kir.Ir.target_name t));
                 ]
               in
               [ base; base @ [ artifacts ] ])
             Kir.Ir.all_targets)
         Registry.all)
  in
  let lines =
    Array.mapi (fun i f -> request_line (("id", Obs.Report.Int (i + 1)) :: f)) lines
  in
  let daemon = Cache.Daemon.create ~lookup_program (Cache.Service.create ()) in
  let reply line = serve_line daemon ~traced:false line in
  let cold = Array.map reply lines in
  let hot = Array.map reply lines in
  (* The reference is the first hot reply, checked against the cold one. *)
  let setup_error i =
    let same f = str_field f hot.(i) = str_field f cold.(i) && str_field f hot.(i) <> None in
    if str_field "cache" hot.(i) <> Some "hit" then Some "the first hot reply is not a hit"
    else if not (same "key" && same "signature") then
      Some "the first hot reply's key or signature differs from the cold reply's"
    else None
  in
  let setup_errors = Array.init (Array.length lines) setup_error in
  let op ~traced i =
    let s = serve_line daemon ~traced lines.(i) in
    {
      check =
        (fun () ->
          match setup_errors.(i) with
          | Some m -> Error m
          | None when s = hot.(i) -> Ok ()
          | None -> Error "reply differs from the first hot reply");
      facts = [ ("cache.response_bytes", float_of_int (String.length s)) ];
    }
  in
  let st = Random.State.make [| seed |] in
  {
    labels = lines;
    next_pass =
      (fun () -> List.init hot_picks (fun _ -> Op (Random.State.int st (Array.length lines))));
    warm = [];
    op;
    cleanup = ignore;
  }

(* --- serve_churn --- *)

(* A pass replays one seeded request sequence against a disk-backed
   service in a fresh directory.  The mix is synthetic: the proportions,
   the capacity, the recent-line window and the restart interval below
   were chosen to reach every store and service path, not taken from
   recorded daemon traffic, and no request log backs them:

   - 20%: every registry program at every (SM count, coarsening,
     target) of the grid below, once each in seeded order: a miss, then
     an fsynced write;
   - 30%: inline sources that differ from one another in one table
     value: the parser, then the incremental path;
   - 50%: repeats of an earlier line, half of them of one of the last
     few new lines (memory hits), half of any (mostly disk hits).

   The service is re-created on the same directory every
   [churn_segment] lines, which runs the scrub.  Each position of the
   sequence meets the same state on every pass, so a position is one
   input. *)
let churn_capacity = 16
let churn_segment = 500
let churn_sms = [ 4; 8; 16 ]
let churn_coarsening = [ 1; 2; 4; 8 ]
let churn_recent = 8
let churn_warm = 100
let work_dir = ".perfbench"

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let find_sub s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go 0

(* An ok reply opens with its id, status and outcome, and the artifacts
   follow.  The outcome is the one part allowed to change between a
   miss and its repeats, so a reply is compared by the digest of the
   rest; [None] when the reply is not ok. *)
let ok_artifacts reply =
  let head = "\"status\":\"ok\",\"cache\":\"" in
  match find_sub reply head with
  | None -> None
  | Some i ->
    let j = String.index_from reply (i + String.length head) '"' in
    Some
      (Digest.string (String.sub reply 0 i ^ String.sub reply j (String.length reply - j)))

let serve_churn ~seed =
  let st = Random.State.make [| seed |] in
  let keys =
    List.concat_map
      (fun (e : Registry.entry) ->
        List.concat_map
          (fun sms ->
            List.concat_map
              (fun n ->
                List.map
                  (fun t ->
                    [
                      ("program", Obs.Report.Str e.Registry.name);
                      ("num_sms", Obs.Report.Int sms);
                      ("coarsening", Obs.Report.Int n);
                      ("target", Obs.Report.Str (Kir.Ir.target_name t));
                    ])
                  Kir.Ir.all_targets)
              churn_coarsening)
          churn_sms)
      Registry.all
  in
  let n_keys = List.length keys in
  let bandpass = read_file "examples/bandpass.str" in
  let tap = "0.4, 0.2, 0.1]" in
  let tap_at =
    match find_sub bandpass tap with
    | Some i -> i
    | None -> failwith "examples/bandpass.str: taps table not found"
  in
  let sources =
    List.init (n_keys * 3 / 2) (fun k ->
        (* distinct by construction: k fixes the low digits *)
        let v = Printf.sprintf "%.1f%04d" (0.3 +. Random.State.float st 0.2) k in
        let src =
          String.sub bandpass 0 tap_at ^ v
          ^ String.sub bandpass (tap_at + 3) (String.length bandpass - tap_at - 3)
        in
        [ ("src", Obs.Report.Str src) ])
  in
  let fresh =
    shuffle st (Array.of_list (keys @ sources))
    |> Array.mapi (fun i f ->
           (i + 1, request_line ((("id", Obs.Report.Int (i + 1)) :: f) @ [ artifacts ])))
  in
  let n_fresh = Array.length fresh in
  (* The first line is new, so every repeat has an earlier line. *)
  let kinds =
    Array.append [| `New |]
      (shuffle st
         (Array.append (Array.make (n_fresh - 1) `New) (Array.make (n_keys * 5 / 2) `Repeat)))
  in
  let next_new = ref 0 in
  let seq =
    Array.map
      (function
        | `New ->
          incr next_new;
          fresh.(!next_new - 1)
        | `Repeat ->
          let recent = Random.State.bool st in
          let lo = if recent then max 0 (!next_new - churn_recent) else 0 in
          fresh.(lo + Random.State.int st (!next_new - lo)))
      kinds
  in
  ensure_dir work_dir;
  let dir = Filename.concat work_dir (Printf.sprintf "churn-%d" (Unix.getpid ())) in
  let daemon = ref None in
  let start () =
    daemon :=
      Some
        (Cache.Daemon.create ~lookup_program
           (Cache.Service.create ~dir ~capacity:churn_capacity ()))
  in
  (* request id -> digest of its first reply, across passes *)
  let first = Hashtbl.create 1024 in
  let op ~traced i =
    let id, line = seq.(i) in
    let s = serve_line (Option.get !daemon) ~traced line in
    {
      check =
        (fun () ->
          match (ok_artifacts s, Hashtbl.find_opt first id) with
          | None, _ -> Error (s ^ " for " ^ line)
          | Some a, None ->
            Hashtbl.add first id a;
            Ok ()
          | Some a, Some b when a = b -> Ok ()
          | Some _, Some _ -> Error "a repeat returned other artifacts than the first reply");
      facts = [ ("cache.response_bytes", float_of_int (String.length s)) ];
    }
  in
  let fresh_start =
    Reset
      (fun () ->
        remove_tree dir;
        Swp_core.Profile.clear_cache ();
        start ())
  in
  let steps n =
    List.concat
      (List.init n (fun i ->
           if i > 0 && i mod churn_segment = 0 then
             [ Restart (fun () -> Obs.Trace.with_span L.scrub start); Op i ]
           else [ Op i ]))
  in
  {
    labels = Array.mapi (fun i (id, _) -> Printf.sprintf "line %d: request %d" i id) seq;
    next_pass = (fun () -> fresh_start :: steps (Array.length seq));
    (* ops of every kind; a whole pass costs seconds *)
    warm = fresh_start :: steps churn_warm;
    op;
    cleanup = (fun () -> remove_tree dir);
  }

(* --- set-up --- *)

let all =
  [
    ("cold_compile", cold_compile);
    ("sm_sweep", sm_sweep);
    ("serve_hot", serve_hot);
    ("serve_churn", serve_churn);
  ]

let names = List.map fst all

let make ?(warm = true) name ~seed =
  let w = (List.assoc name all) ~seed in
  if warm then
    List.iter
      (function
        | Reset f | Restart f -> f ()
        | Op i -> ignore ((run_op w ~traced:false i).check ()))
      w.warm;
  w
