(* The content-addressed schedule cache behind `streamit_gpu serve`:
   key canonicalization and sensitivity, the byte-identity guarantee
   (a hit returns exactly the bytes a cold compile would produce),
   single-flight coalescing, the two-tier store, and the incremental
   warm-start path. *)

let t name f = Alcotest.test_case name `Quick f

let rm_rf dir =
  let rec go p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> go (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists dir then go dir

let flatten_src src =
  Streamit.Flatten.flatten (Frontend.Parser.parse_program src)

(* A tiny three-filter pipeline, plus variants that differ only in
   naming (same key expected) or only in one filter's body (same
   skeleton, different key). *)
let base_src =
  {|
filter A pop 0 push 1 { push(1.0); }
filter B pop 1 push 1 { push(pop() * 2.0); }
filter C pop 1 push 0 { let x = pop(); }
pipeline P { add A; add B; add C; }
|}

let renamed_src =
  {|
filter Z pop 0 push 1 { push(1.0); }
filter Y pop 1 push 1 { push(pop() * 2.0); }
filter W pop 1 push 0 { let q = pop(); }
pipeline Q { add Z; add Y; add W; }
|}

let body_changed_src =
  {|
filter A pop 0 push 1 { push(1.0); }
filter B pop 1 push 1 { push(pop() * 3.0); }
filter C pop 1 push 0 { let x = pop(); }
pipeline P { add A; add B; add C; }
|}

let opts = Cache.Key.default_options

let ok = function
  | Ok v -> v
  | Error m -> Alcotest.fail m

let equal_entry (a : Cache.Store.entry) (b : Cache.Store.entry) = a = b

let check_entry msg a b =
  Alcotest.(check bool) (msg ^ ": byte-identical entries") true
    (equal_entry a b)

(* ---- Key ------------------------------------------------------------- *)

let key_tests =
  [
    t "digest is naming-irrelevant" (fun () ->
        let g = flatten_src base_src and r = flatten_src renamed_src in
        Alcotest.(check string) "renamed graph, same key"
          (Cache.Key.digest g opts) (Cache.Key.digest r opts);
        Alcotest.(check string) "same skeleton too"
          (Cache.Key.skeleton_digest g opts)
          (Cache.Key.skeleton_digest r opts));
    t "digest agrees with the canonical form" (fun () ->
        let g = flatten_src base_src in
        Alcotest.(check string) "digest(canonical g) = digest(g)"
          (Cache.Key.digest g opts)
          (Cache.Key.digest (Cache.Key.canonical_graph g) opts);
        Alcotest.(check string) "serialize too"
          (Cache.Key.serialize g)
          (Cache.Key.serialize (Cache.Key.canonical_graph g)));
    t "digest is body-sensitive, skeleton is not" (fun () ->
        let g = flatten_src base_src and m = flatten_src body_changed_src in
        Alcotest.(check bool) "body change, new key" true
          (Cache.Key.digest g opts <> Cache.Key.digest m opts);
        Alcotest.(check string) "body change, same skeleton"
          (Cache.Key.skeleton_digest g opts)
          (Cache.Key.skeleton_digest m opts));
    t "digest is option-sensitive" (fun () ->
        let g = flatten_src base_src in
        let base = Cache.Key.digest g opts in
        let variants =
          [
            ("coarsening", { opts with Cache.Key.coarsening = 2 });
            ("num_sms", { opts with Cache.Key.num_sms = Some 4 });
            ("budget", { opts with Cache.Key.budget = Some 10 });
            ( "scheme",
              { opts with Cache.Key.scheme = Swp_core.Compile.Swp_non_coalesced }
            );
            ("lns_rounds", { opts with Cache.Key.lns_rounds = Some 0 });
            ("target", { opts with Cache.Key.target = Kir.Ir.Wgsl });
          ]
        in
        List.iter
          (fun (what, o) ->
            Alcotest.(check bool) (what ^ " change, new key") true
              (Cache.Key.digest g o <> base))
          variants);
    t "digest is float-bit-sensitive" (fun () ->
        (* 2.0 vs the next float up: far below %g precision, still a
           different key *)
        let v = {|
filter A pop 0 push 1 { push(1.0); }
filter B pop 1 push 1 { push(pop() * 2.0000000000000004); }
filter C pop 1 push 0 { let x = pop(); }
pipeline P { add A; add B; add C; }
|}
        in
        let g = flatten_src base_src and m = flatten_src v in
        Alcotest.(check bool) "ulp change, new key" true
          (Cache.Key.digest g opts <> Cache.Key.digest m opts));
  ]

(* ---- Store ----------------------------------------------------------- *)

let entry k =
  {
    Cache.Store.key = k;
    ii = 42;
    quality = "exact";
    signature = "sig-" ^ k;
    schedule = "sched\nlines";
    layout = "layout";
    kernel = "__global__ void k() {}\n";
    report = "{\"ii\":42}";
  }

let store_tests =
  [
    t "serialize/deserialize round-trips" (fun () ->
        let e = entry "k1" in
        check_entry "round-trip" e
          (Cache.Store.deserialize (Cache.Store.serialize e)));
    t "deserialize rejects garbage" (fun () ->
        List.iter
          (fun s ->
            try
              ignore (Cache.Store.deserialize s);
              Alcotest.fail "expected Corrupt"
            with Cache.Store.Corrupt _ -> ())
          [
            "";
            "garbage";
            "streamit-cache-entry v2\n9999999 x";
            (* v1 entries (pre-target format) must read as corrupt, not
               as entries with a misnamed kernel section *)
            "streamit-cache-entry v1\nkey k\nii 1\nquality q\nsignature s\n";
          ]);
    t "in-memory tier hits and LRU-evicts" (fun () ->
        let s = Cache.Store.create ~capacity:2 () in
        Cache.Store.put s (entry "a");
        Cache.Store.put s (entry "b");
        Alcotest.(check bool) "a present" true
          (Cache.Store.find s "a" <> None);
        (* touch a so b is the least recently used *)
        Cache.Store.put s (entry "c");
        Alcotest.(check int) "capacity held" 2 (Cache.Store.mem_size s);
        Alcotest.(check bool) "b evicted" true (Cache.Store.find s "b" = None);
        Alcotest.(check bool) "a survives" true
          (Cache.Store.find s "a" <> None);
        Alcotest.(check bool) "c present" true
          (Cache.Store.find s "c" <> None));
    t "disk tier persists across store instances" (fun () ->
        let dir = "cache_store_disk_test" in
        let s1 = Cache.Store.create ~dir () in
        Cache.Store.put s1 (entry "k-disk");
        let s2 = Cache.Store.create ~dir () in
        (match Cache.Store.find s2 "k-disk" with
        | Some e -> check_entry "disk round-trip" (entry "k-disk") e
        | None -> Alcotest.fail "disk entry not found");
        (* an entry whose stored key disagrees with its filename is a
           miss, not a crash — and the suspect file is quarantined, not
           deleted *)
        let oc = open_out (Filename.concat dir "deadbeef.entry") in
        output_string oc (Cache.Store.serialize (entry "not-deadbeef"));
        close_out oc;
        Alcotest.(check bool) "key-mismatched file is a miss" true
          (Cache.Store.find s2 "deadbeef" = None);
        Alcotest.(check bool) "key-mismatched file was quarantined" true
          (Sys.file_exists
             (Filename.concat (Cache.Store.quarantine_dir dir)
                "deadbeef.entry"));
        rm_rf dir);
    t "startup scrub quarantines torn writes, never deletes" (fun () ->
        let dir = "cache_store_scrub_test" in
        rm_rf dir;
        let s1 = Cache.Store.create ~dir () in
        Cache.Store.put s1 (entry "intact");
        Cache.Store.put s1 (entry "torn");
        (* simulate a torn write: truncate the published entry *)
        let p = Filename.concat dir "torn.entry" in
        let full = In_channel.with_open_bin p In_channel.input_all in
        Out_channel.with_open_bin p (fun oc ->
            Out_channel.output_string oc
              (String.sub full 0 (String.length full / 2)));
        (* and writer debris from a crash before the rename *)
        Out_channel.with_open_bin (Filename.concat dir "junk.entry.tmp")
          (fun oc -> Out_channel.output_string oc "half a payload");
        let s2 = Cache.Store.create ~dir () in
        let scrub = Cache.Store.scrub_stats s2 in
        Alcotest.(check int) "scrub scanned all files" 3
          scrub.Cache.Store.scanned;
        Alcotest.(check int) "scrub quarantined torn + debris" 2
          scrub.Cache.Store.quarantined;
        Alcotest.(check bool) "intact entry survives" true
          (Cache.Store.find s2 "intact" <> None);
        Alcotest.(check bool) "torn entry is a miss" true
          (Cache.Store.find s2 "torn" = None);
        let q = Cache.Store.quarantine_dir dir in
        Alcotest.(check bool) "torn bytes preserved in quarantine" true
          (Sys.file_exists (Filename.concat q "torn.entry"));
        Alcotest.(check bool) "debris preserved in quarantine" true
          (Sys.file_exists (Filename.concat q "junk.entry.tmp"));
        rm_rf dir);
    t "injected disk faults degrade to memory-only, not failure" (fun () ->
        let dir = "cache_store_degrade_test" in
        rm_rf dir;
        let s = Cache.Store.create ~dir () in
        Resil.Inject.arm [ { Resil.Inject.site = "store.write"; at = 1 } ];
        Cache.Store.put s (entry "k1");
        Resil.Inject.disarm ();
        Alcotest.(check bool) "store degraded after write fault" true
          (Cache.Store.disk_degraded s);
        Alcotest.(check bool) "entry still served from memory" true
          (Cache.Store.find s "k1" <> None);
        Alcotest.(check bool) "nothing published to disk" true
          (not (Sys.file_exists (Filename.concat dir "k1.entry")));
        (* later writes stay memory-only instead of retrying the disk *)
        Cache.Store.put s (entry "k2");
        Alcotest.(check bool) "degradation is sticky" true
          (not (Sys.file_exists (Filename.concat dir "k2.entry")));
        rm_rf dir);
  ]

(* ---- Service --------------------------------------------------------- *)

let registry_graphs () =
  List.map
    (fun (e : Benchmarks.Registry.entry) ->
      (e.name, Streamit.Flatten.flatten (e.stream ())))
    Benchmarks.Registry.all

let service_tests =
  [
    t "hit is byte-identical to cold compile (all 8 benchmarks)" (fun () ->
        let timed f =
          let t0 = Resil.Clock.now () in
          let r = f () in
          (r, Resil.Clock.now () -. t0)
        in
        let cold_s = ref 0.0 and hot_s = ref 0.0 in
        List.iter
          (fun (name, g) ->
            (* cold: fresh service, fresh profile memo *)
            let svc1 = Cache.Service.create () in
            Swp_core.Profile.clear_cache ();
            let get () = ok (Cache.Service.get svc1 g opts) in
            let (e1, o1), cold = timed get in
            Alcotest.(check string) (name ^ ": first is a miss") "miss"
              (Cache.Service.outcome_name o1);
            (* hit on the same service; its time is the median of 21 *)
            let hits = List.init 21 (fun _ -> timed get) in
            let (e2, o2), _ = List.hd hits in
            Alcotest.(check string) (name ^ ": second is a hit") "hit"
              (Cache.Service.outcome_name o2);
            check_entry (name ^ ": hit vs cold") e1 e2;
            cold_s := !cold_s +. cold;
            hot_s :=
              !hot_s +. List.nth (List.sort compare (List.map snd hits)) 10;
            (* a second cold compile — now under a warm profile memo —
               must still produce the same bytes *)
            let svc2 = Cache.Service.create () in
            let e3, _ = ok (Cache.Service.get svc2 g opts) in
            check_entry (name ^ ": warm-memo cold vs cold") e1 e3)
          (registry_graphs ());
        (* what the cache buys a long-lived daemon: a hit still pays the
           canonical serialization and MD5, yet must be 10x a compile *)
        Printf.printf "serve hot/cold speedup: %.1fx\n" (!cold_s /. !hot_s);
        Alcotest.(check bool) "hot path at least 10x the cold path" true
          (!hot_s *. 10.0 <= !cold_s));
    t "wgsl and cuda requests for one graph never alias" (fun () ->
        let g = flatten_src base_src in
        let wgsl_opts = { opts with Cache.Key.target = Kir.Ir.Wgsl } in
        Alcotest.(check bool) "distinct keys" true
          (Cache.Key.digest g opts <> Cache.Key.digest g wgsl_opts);
        let svc = Cache.Service.create () in
        let e_cuda, o1 = ok (Cache.Service.get svc g opts) in
        let e_wgsl, o2 = ok (Cache.Service.get svc g wgsl_opts) in
        (* the second target misses — it cannot be served the first
           target's entry *)
        Alcotest.(check string) "cuda misses" "miss"
          (Cache.Service.outcome_name o1);
        Alcotest.(check string) "wgsl misses too" "miss"
          (Cache.Service.outcome_name o2);
        Alcotest.(check bool) "distinct entries" true
          (e_cuda.Cache.Store.key <> e_wgsl.Cache.Store.key);
        Alcotest.(check bool) "distinct kernel bytes" true
          (e_cuda.Cache.Store.kernel <> e_wgsl.Cache.Store.kernel);
        (* and each target's repeat request hits its own entry *)
        let e_cuda2, o3 = ok (Cache.Service.get svc g opts) in
        let e_wgsl2, o4 = ok (Cache.Service.get svc g wgsl_opts) in
        Alcotest.(check string) "cuda hit" "hit"
          (Cache.Service.outcome_name o3);
        Alcotest.(check string) "wgsl hit" "hit"
          (Cache.Service.outcome_name o4);
        check_entry "cuda stable" e_cuda e_cuda2;
        check_entry "wgsl stable" e_wgsl e_wgsl2);
    t "naming-only edit hits with identical bytes" (fun () ->
        let svc = Cache.Service.create () in
        let e1, _ = ok (Cache.Service.get svc (flatten_src base_src) opts) in
        let e2, o2 =
          ok (Cache.Service.get svc (flatten_src renamed_src) opts)
        in
        Alcotest.(check string) "renamed graph hits" "hit"
          (Cache.Service.outcome_name o2);
        check_entry "renamed" e1 e2);
    t "one-filter body change recompiles incrementally" (fun () ->
        let svc = Cache.Service.create () in
        let _ = ok (Cache.Service.get svc (flatten_src base_src) opts) in
        let e_inc, o =
          ok (Cache.Service.get svc (flatten_src body_changed_src) opts)
        in
        Alcotest.(check string) "incremental outcome" "incremental"
          (Cache.Service.outcome_name o);
        (* the warm-started result must equal a cold compile of the
           changed graph, byte for byte *)
        let svc2 = Cache.Service.create () in
        Swp_core.Profile.clear_cache ();
        let e_cold, _ =
          ok (Cache.Service.get svc2 (flatten_src body_changed_src) opts)
        in
        Alcotest.(check bool) "non-degraded (stored path)" true
          (e_inc.Cache.Store.quality <> "degraded");
        check_entry "incremental vs cold" e_inc e_cold);
    t "warm=false disables the incremental path" (fun () ->
        let svc = Cache.Service.create ~warm:false () in
        let _ = ok (Cache.Service.get svc (flatten_src base_src) opts) in
        let _, o =
          ok (Cache.Service.get svc (flatten_src body_changed_src) opts)
        in
        Alcotest.(check string) "plain miss" "miss"
          (Cache.Service.outcome_name o));
    t "concurrent same-key requests compile exactly once" (fun () ->
        let g = flatten_src base_src in
        let svc = Cache.Service.create () in
        Par.Pool.set_jobs 4;
        let results =
          Fun.protect
            ~finally:(fun () -> Par.Pool.set_jobs 1)
            (fun () ->
              Cache.Service.get_many svc (List.init 8 (fun _ -> (g, opts))))
        in
        Alcotest.(check int) "one compile" 1 (Cache.Service.compiles svc);
        let entries =
          List.map (fun r -> fst (ok r)) results
        in
        let first = List.hd entries in
        List.iteri
          (fun i e -> check_entry (Printf.sprintf "request %d" i) first e)
          entries);
  ]

(* ---- Protocol -------------------------------------------------------- *)

let protocol_tests =
  [
    t "request parsing: defaults and validation" (fun () ->
        (match
           Cache.Protocol.parse_request
             {|{"op":"compile","program":"Bitonic"}|}
         with
        | Ok r ->
          Alcotest.(check bool) "compile op" true
            (r.Cache.Protocol.op = Cache.Protocol.Compile);
          Alcotest.(check (option string)) "program" (Some "Bitonic")
            r.Cache.Protocol.program;
          Alcotest.(check int) "default coarsening" 1
            r.Cache.Protocol.coarsening;
          Alcotest.(check bool) "warm by default" true r.Cache.Protocol.warm
        | Error m -> Alcotest.fail m);
        List.iter
          (fun bad ->
            match Cache.Protocol.parse_request bad with
            | Ok _ -> Alcotest.fail ("accepted: " ^ bad)
            | Error _ -> ())
          [
            "";
            "{";
            "[1,2]";
            {|{"op":"frobnicate"}|};
            {|{"op":"compile","scheme":"SWP2"}|};
            {|{"op":"compile","program":"Bitonic","artifacts":["cuda","nope"]}|};
            {|{"op":"compile","program":"Bitonic","artifacts":"cuda"}|};
            {|{"op":"compile","program":"Bitonic","artifacts":["cuda"]}|};
          ]);
    t "JSON reader round-trips through the report printer" (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check string) s s
              (Obs.Report.to_string (Cache.Protocol.parse s)))
          [
            {|{"a":[1,2.5,"x\n",true,null],"b":{"c":-3}}|};
            {|[]|};
            {|"A\\"|};
            {|-0.5|};
          ]);
  ]

let suite = key_tests @ store_tests @ service_tests @ protocol_tests
