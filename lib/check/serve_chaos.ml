(* Chaos campaign for the serve daemon.

   Each seed drives the *production* request loop (Cache.Daemon over
   temp-file channels, exactly what [streamit_gpu serve] runs) through
   four phases:

   1. a chaotic session: a seed-derived request script (compiles,
      duplicates, a batch, a malformed line, ping, shutdown) served
      with one or two deterministic faults armed over the hardened
      sites — store.read, store.write, protocol.decode, serve.admit,
      serve.compile.  The contract: the daemon never crashes, answers
      every line with exactly one well-formed JSON response, and ends
      with a drained shutdown;
   2. disk corruption: with the daemon gone, entry files are torn,
      bit-flipped, or joined by garbage debris (a seed-derived mix);
   3. a recovery session on the same directory: the startup scrub must
      quarantine exactly the files we corrupted — never silently
      delete them — and the replayed script must succeed end to end;
   4. a byte-identity audit: every entry file that survived on disk
      must deserialize cleanly and byte-equal a cold compile of its
      key on a fresh memory-only service.  This is the "0
      byte-divergent cached artifacts" guarantee: no amount of fault
      injection may ever publish wrong bytes under a valid checksum.

   Separately from the per-seed phases, [overload_burst] checks the
   deterministic-shedding contract: a burst of B compiles against a
   guard with capacity C < B must shed exactly the last B - C requests
   of the batch, every time.

   Fault arming is process-global, so seeds run strictly serially —
   which also keeps every campaign deterministic in (base_seed,
   seeds).  Each seed's scratch directory holds the cache, the
   quarantine and an events.log trail; on failure it is kept for
   post-mortem (CI uploads it). *)

type failure = { seed : int; what : string }

type stats = {
  seeds : int;
  failed : int;
  responses : int;  (** well-formed response lines observed *)
  sheds : int;  (** overloaded responses observed (inject + burst) *)
  quarantined : int;  (** files the recovery scrubs moved aside *)
  byte_checks : int;  (** cold-vs-disk byte-identity comparisons *)
}

let m_seeds = Obs.Metrics.counter "serve_chaos.seeds"
let m_failures = Obs.Metrics.counter "serve_chaos.failures"
let m_byte_checks = Obs.Metrics.counter "serve_chaos.byte_checks"

let sites =
  [| "store.read"; "store.write"; "protocol.decode"; "serve.admit";
     "serve.compile" |]

(* --- seed-derived request scripts --- *)

let src_a =
  "filter A pop 0 push 1 { push(1.0); } filter B pop 1 push 1 { push(pop() * \
   2.0); } filter C pop 1 push 0 { let x = pop(); } pipeline P { add A; add \
   B; add C; }"

let src_b =
  "filter A pop 0 push 1 { push(1.0); } filter B pop 1 push 1 { push(pop() * \
   3.0); } filter C pop 1 push 0 { let x = pop(); } pipeline P { add A; add \
   B; add C; }"

let src_c =
  "filter S pop 0 push 2 { push(1.0); push(2.0); } filter T pop 2 push 1 { \
   push(pop() + pop()); } filter U pop 1 push 0 { let y = pop(); } pipeline \
   R { add S; add T; add U; }"

let compile_line ~id ?(coarsening = 1) src =
  Printf.sprintf
    "{\"id\":%d,\"op\":\"compile\",\"coarsening\":%d,\"src\":\"%s\"}" id
    coarsening (Obs.Report.escape src)

(* The compile population each seed draws from; the audit cold-compiles
   the same pairs.  (src, coarsening) both feed the cache key. *)
let population = [ (src_a, 1); (src_b, 1); (src_c, 1); (src_a, 2) ]

let script_for rng =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let lines = ref [] and id = ref 0 in
  let add l = lines := l :: !lines in
  let compile () =
    incr id;
    let src, coarsening = pick population in
    add (compile_line ~id:!id ~coarsening src)
  in
  (* 3-5 single compiles, some repeated keys among them *)
  for _ = 1 to 3 + Random.State.int rng 3 do
    compile ()
  done;
  (* one malformed line somewhere in the middle *)
  add (pick [ "{\"id\":99,\"op\":"; "[1,2"; "{\"id\":99 \"op\":\"ping\"}" ]);
  (* a batch of 3 *)
  let batch =
    List.init 3 (fun _ ->
        incr id;
        let src, coarsening = pick population in
        Printf.sprintf
          "{\"id\":%d,\"op\":\"compile\",\"coarsening\":%d,\"src\":\"%s\"}"
          !id coarsening (Obs.Report.escape src))
  in
  add ("[" ^ String.concat "," batch ^ "]");
  add "{\"id\":100,\"op\":\"ping\"}";
  add "{\"id\":101,\"op\":\"shutdown\"}";
  List.rev !lines

let specs_for rng =
  let n = 1 + Random.State.int rng 2 in
  List.init n (fun _ ->
      {
        Resil.Inject.site = sites.(Random.State.int rng (Array.length sites));
        at = 1 + Random.State.int rng 3;
      })

(* --- driving the daemon over real channels --- *)

let write_file p s =
  let oc = open_out_bin p in
  output_string oc s;
  close_out oc

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_lines p =
  read_file p |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

(* Run the production loop over a script; returns the response lines.
   Raises whatever the daemon loop leaks — which the contract says is
   nothing. *)
let run_session ~cache_dir ~script () =
  let service = Cache.Service.create ~dir:cache_dir ~capacity:8 () in
  let guard = Cache.Guard.create ~max_inflight:2 ~queue_cap:2 () in
  let daemon = Cache.Daemon.create ~guard ~max_line_bytes:65536 service in
  let script_p = Filename.concat cache_dir "script.ndjson" in
  let replies_p = Filename.concat cache_dir "replies.ndjson" in
  write_file script_p (String.concat "\n" script ^ "\n");
  let ic = open_in_bin script_p in
  let oc = open_out_bin replies_p in
  let shutdown =
    Fun.protect
      ~finally:(fun () ->
        close_in_noerr ic;
        close_out_noerr oc)
      (fun () -> Cache.Daemon.serve_channel daemon ic oc)
  in
  (service, shutdown, read_lines replies_p)

(* Every response line must be one well-formed JSON object carrying a
   "status", or an array of such objects (batch).  Returns the number
   of objects and how many were overload sheds. *)
let well_formed line =
  let module J = Obs.Report in
  let check_obj = function
    | J.Obj fields -> (
      match List.assoc_opt "status" fields with
      | Some (J.Str ("ok" | "error")) ->
        let shed =
          match List.assoc_opt "error" fields with
          | Some (J.Str e) -> String.length e >= 10 && String.sub e 0 10 = "overloaded"
          | _ -> false
        in
        Ok (if shed then 1 else 0)
      | _ -> Error "response object has no status"
      )
    | _ -> Error "response is not an object"
  in
  match Cache.Protocol.parse line with
  | exception Cache.Protocol.Parse_error m ->
    Error ("unparseable response: " ^ m)
  | J.Arr docs ->
    List.fold_left
      (fun acc d ->
        match (acc, check_obj d) with
        | Error _, _ -> acc
        | _, Error m -> Error m
        | Ok (n, s), Ok shed -> Ok (n + 1, s + shed))
      (Ok (0, 0)) docs
  | doc -> Result.map (fun s -> (1, s)) (check_obj doc)

(* --- disk corruption --- *)

let entry_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".entry")
  |> List.sort compare

(* Corrupt the persisted tier; returns how many files the next scrub
   must quarantine. *)
let corrupt_disk rng dir =
  let corrupted = ref 0 in
  let entries = entry_files dir in
  (* tear or bit-flip up to two real entries *)
  List.iteri
    (fun i f ->
      if i < 2 && entries <> [] then begin
        let p = Filename.concat dir f in
        let s = read_file p in
        let s' =
          if Random.State.bool rng then
            (* torn write: keep a prefix *)
            String.sub s 0 (String.length s / 2)
          else begin
            (* single byte flip in the payload *)
            let b = Bytes.of_string s in
            let i = String.length s / 2 in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
            Bytes.to_string b
          end
        in
        write_file p s';
        incr corrupted
      end)
    entries;
  (* debris a crashed writer might leave *)
  write_file (Filename.concat dir "deadbeef.entry.tmp") "partial garbage";
  incr corrupted;
  (* garbage published under a plausible name *)
  write_file
    (Filename.concat dir (String.make 32 '0' ^ ".entry"))
    "streamit-cache-entry v3\nchecksum 0123\nnot a real payload\n";
  incr corrupted;
  !corrupted

(* --- byte-identity audit --- *)

let graph_of_src src =
  let stream = Frontend.Parser.parse_program src in
  match Streamit.Ast.validate stream with
  | Error m -> failwith ("audit: invalid stream: " ^ m)
  | Ok () -> Streamit.Flatten.flatten stream

(* For every population member whose entry survived on disk, a cold
   compile on a fresh memory-only service must produce byte-identical
   serialized artifacts. *)
let audit_disk dir =
  let cold = Cache.Service.create () in
  let checks = ref 0 in
  List.iter
    (fun (src, coarsening) ->
      let g = graph_of_src src in
      let o = { Cache.Key.default_options with Cache.Key.coarsening } in
      let key = Cache.Key.digest g o in
      let p = Filename.concat dir (key ^ ".entry") in
      if Sys.file_exists p then begin
        let disk_entry = Cache.Store.deserialize (read_file p) in
        match Cache.Service.get ~warm:false cold g o with
        | Error m -> failwith ("audit: cold compile failed: " ^ m)
        | Ok (cold_entry, _) ->
          incr checks;
          Obs.Metrics.inc m_byte_checks;
          if
            Cache.Store.serialize disk_entry
            <> Cache.Store.serialize cold_entry
          then
            failwith
              (Printf.sprintf "audit: cached artifact for key %s diverges \
                               from a cold compile" key)
      end)
    population;
  !checks

(* --- the deterministic-shedding burst --- *)

(* A burst of [burst] identical-cost compiles against capacity
   [max_inflight + queue_cap] must shed exactly the overflow, and
   always the *last* requests in arrival order.  Runs disarmed. *)
let overload_burst () =
  let service = Cache.Service.create () in
  let guard = Cache.Guard.create ~max_inflight:1 ~queue_cap:2 () in
  let daemon = Cache.Daemon.create ~guard service in
  let burst = 8 and cap = 3 in
  let reqs =
    List.init burst (fun i -> compile_line ~id:(i + 1) src_a)
  in
  let line = "[" ^ String.concat "," reqs ^ "]" in
  match Cache.Daemon.handle_line daemon line with
  | `Shutdown _ -> Error "burst: unexpected shutdown"
  | `Reply s -> (
    let module J = Obs.Report in
    match Cache.Protocol.parse s with
    | J.Arr docs when List.length docs = burst ->
      let ok = ref true and sheds = ref 0 in
      List.iteri
        (fun i d ->
          let shed =
            match J.member "error" d with
            | Some (J.Str e) ->
              String.length e >= 10 && String.sub e 0 10 = "overloaded"
            | _ -> false
          in
          if shed then incr sheds;
          (* admission is serial in arrival order: the first [cap]
             requests are admitted, everything after is shed *)
          if shed <> (i >= cap) then ok := false)
        docs;
      if not !ok then
        Error
          (Printf.sprintf
             "burst: shed pattern not deterministic-by-arrival (%d sheds)"
             !sheds)
      else if !sheds <> burst - cap then
        Error (Printf.sprintf "burst: expected %d sheds, got %d"
                 (burst - cap) !sheds)
      else Ok !sheds
    | _ -> Error "burst: reply is not an array of the right length")

(* --- per-seed driver --- *)

let rm_rf dir =
  let rec go p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> go (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists dir then go dir

let scratch_for seed =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "serve_chaos_%d_%d" (Unix.getpid ()) seed)

type log = { oc : out_channel }

let log_line l fmt = Printf.ksprintf (fun s ->
    output_string l.oc s; output_char l.oc '\n'; flush l.oc) fmt

let run_seed seed =
  Obs.Metrics.inc m_seeds;
  let scratch = scratch_for seed in
  rm_rf scratch;
  Unix.mkdir scratch 0o755;
  let cache_dir = Filename.concat scratch "cache" in
  let l = { oc = open_out (Filename.concat scratch "events.log") } in
  let responses = ref 0 and sheds = ref 0 and quarantined = ref 0 in
  let byte_checks = ref 0 in
  let fail what =
    log_line l "FAIL %s" what;
    close_out_noerr l.oc;
    Resil.Inject.disarm ();
    Error { seed; what }
  in
  let result =
    try
      let rng = Random.State.make [| seed; 0x5eed |] in
      let script = script_for rng in
      let specs = specs_for rng in
      log_line l "seed %d: %d script lines, faults [%s]" seed
        (List.length script)
        (String.concat "; "
           (List.map
              (fun s -> Printf.sprintf "%s@%d" s.Resil.Inject.site s.at)
              specs));
      (* phase 1: chaotic session *)
      Resil.Inject.arm specs;
      let _service, shutdown, replies =
        run_session ~cache_dir ~script ()
      in
      Resil.Inject.disarm ();
      log_line l "phase1: %d replies, shutdown=%b" (List.length replies)
        shutdown;
      if not shutdown then failwith "daemon did not acknowledge shutdown";
      if List.length replies <> List.length script then
        failwith
          (Printf.sprintf "phase1: %d script lines but %d response lines"
             (List.length script) (List.length replies));
      List.iter
        (fun line ->
          match well_formed line with
          | Ok (n, s) ->
            responses := !responses + n;
            sheds := !sheds + s
          | Error m -> failwith ("phase1: " ^ m))
        replies;
      (* phase 2: corrupt the disk tier *)
      let corrupted = corrupt_disk rng cache_dir in
      log_line l "phase2: corrupted %d files" corrupted;
      (* phase 3: recovery session, disarmed *)
      let service2, shutdown2, replies2 =
        run_session ~cache_dir ~script ()
      in
      let scrub =
        Cache.Store.scrub_stats (Cache.Service.store service2)
      in
      log_line l "phase3: scrub scanned %d quarantined %d; %d replies"
        scrub.Cache.Store.scanned scrub.Cache.Store.quarantined
        (List.length replies2);
      if scrub.Cache.Store.quarantined <> corrupted then
        failwith
          (Printf.sprintf
             "phase3: corrupted %d files but scrub quarantined %d" corrupted
             scrub.Cache.Store.quarantined);
      quarantined := scrub.Cache.Store.quarantined;
      let qdir = Cache.Store.quarantine_dir cache_dir in
      let qn =
        if Sys.file_exists qdir then Array.length (Sys.readdir qdir) else 0
      in
      if qn < corrupted then
        failwith
          (Printf.sprintf
             "phase3: quarantine dir holds %d files, expected >= %d" qn
             corrupted);
      if not shutdown2 then failwith "phase3: recovery shutdown missing";
      List.iter
        (fun line ->
          match well_formed line with
          | Ok (n, s) ->
            responses := !responses + n;
            sheds := !sheds + s
          | Error m -> failwith ("phase3: " ^ m))
        replies2;
      (* phase 4: byte-identity audit of surviving entries *)
      byte_checks := audit_disk cache_dir;
      log_line l "phase4: %d byte-identity checks" !byte_checks;
      close_out_noerr l.oc;
      Ok ()
    with
    | Failure m -> fail m
    | e -> fail ("escaped exception: " ^ Printexc.to_string e)
  in
  (result, scratch, !responses, !sheds, !quarantined, !byte_checks)

let run ?(base_seed = 1) ?(seeds = 50) ?(keep = false) () =
  let failed = ref [] in
  let responses = ref 0 and sheds = ref 0 and quarantined = ref 0 in
  let byte_checks = ref 0 in
  (* the burst contract once per campaign: it is seed-independent *)
  (match overload_burst () with
  | Ok n -> sheds := !sheds + n
  | Error what ->
    Obs.Metrics.inc m_failures;
    failed := { seed = -1; what } :: !failed);
  for seed = base_seed to base_seed + seeds - 1 do
    let result, scratch, r, s, q, b = run_seed seed in
    responses := !responses + r;
    sheds := !sheds + s;
    quarantined := !quarantined + q;
    byte_checks := !byte_checks + b;
    match result with
    | Ok () -> if not keep then rm_rf scratch
    | Error f ->
      Obs.Metrics.inc m_failures;
      (* keep the scratch (cache, quarantine, events.log) for
         post-mortem; CI uploads it *)
      Printf.eprintf "serve_chaos: seed %d failed, scratch kept at %s\n%!"
        f.seed scratch;
      failed := f :: !failed
  done;
  ( {
      seeds;
      failed = List.length !failed;
      responses = !responses;
      sheds = !sheds;
      quarantined = !quarantined;
      byte_checks = !byte_checks;
    },
    List.rev !failed )

let pp_failure ppf f =
  if f.seed < 0 then Format.fprintf ppf "[burst] %s" f.what
  else Format.fprintf ppf "[seed %d] %s" f.seed f.what

let pp_stats ppf s =
  Format.fprintf ppf
    "serve_chaos: %d seeds, %d failed, %d responses, %d sheds, %d \
     quarantined, %d byte-identity checks"
    s.seeds s.failed s.responses s.sheds s.quarantined s.byte_checks
