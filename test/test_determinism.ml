(* Parallel-compilation determinism: for every registry benchmark the
   pool-backed pipeline (profile sweep, config selection, speculative II
   probing) at --jobs 4 must produce byte-identical results to the
   serial pipeline — same schedule, same buffer layout, same generated
   CUDA.  Every benchmark is additionally pinned against its golden
   CUDA fixture (fixtures/codegen/, shared with the dune diff rules) so
   that an accidental (even deterministic) change to the generator or
   the scheduler shows up as a diff. *)

let t name f = Alcotest.test_case name `Quick f

let compile_bench (e : Benchmarks.Registry.entry) =
  let g = Streamit.Flatten.flatten (e.Benchmarks.Registry.stream ()) in
  match Swp_core.Compile.compile g with
  | Ok c -> c
  | Error m -> Alcotest.failf "%s failed to compile: %s" e.Benchmarks.Registry.name m

type snapshot = {
  schedule : Swp_core.Swp_schedule.t;
  sizing : Swp_core.Buffer_layout.sizing;
  cuda : string;
}

let snapshot e =
  (* The profile cache would otherwise hand the second compilation the
     first one's results, hiding any nondeterminism in the parallel
     sweep itself. *)
  Swp_core.Profile.clear_cache ();
  let c = compile_bench e in
  {
    schedule = c.Swp_core.Compile.schedule;
    sizing = c.Swp_core.Compile.sizing;
    cuda = Kir.Backend.emit_compiled Kir.Ir.Cuda c;
  }

let with_jobs n f =
  Par.Pool.set_jobs n;
  Fun.protect f ~finally:(fun () ->
      Par.Pool.set_jobs 1;
      Swp_core.Profile.clear_cache ())

let check_equal name (serial : snapshot) (par : snapshot) =
  Alcotest.(check int)
    (name ^ ": II") serial.schedule.Swp_core.Swp_schedule.ii
    par.schedule.Swp_core.Swp_schedule.ii;
  Alcotest.(check bool)
    (name ^ ": schedule entries identical") true
    (serial.schedule = par.schedule);
  Alcotest.(check int)
    (name ^ ": total buffer bytes")
    serial.sizing.Swp_core.Buffer_layout.total_bytes
    par.sizing.Swp_core.Buffer_layout.total_bytes;
  Alcotest.(check bool)
    (name ^ ": per-edge buffer layout identical") true
    (serial.sizing.Swp_core.Buffer_layout.per_edge
    = par.sizing.Swp_core.Buffer_layout.per_edge);
  Alcotest.(check bool)
    (name ^ ": generated CUDA byte-identical") true
    (String.equal serial.cuda par.cuda)

let serial_vs_parallel (e : Benchmarks.Registry.entry) =
  let name = e.Benchmarks.Registry.name in
  t (name ^ ": --jobs 4 == serial") (fun () ->
      let serial = with_jobs 1 (fun () -> snapshot e) in
      let par = with_jobs 4 (fun () -> snapshot e) in
      check_equal name serial par)

(* ---- budgeted determinism ------------------------------------------- *)

(* Work-unit budgets are counted in solver work (pivots + nodes), never
   wall time, so a budget-limited compile must cut off at exactly the
   same attempt serially and under --jobs 4: identical schedule, sizing,
   CUDA, quality, and byte-identical attempt log. *)

let budgeted_snapshot e ~budget =
  Swp_core.Profile.clear_cache ();
  let g = Streamit.Flatten.flatten (e.Benchmarks.Registry.stream ()) in
  match Swp_core.Compile.compile ~budget g with
  | Error m ->
    Alcotest.failf "%s failed to compile under budget %d: %s"
      e.Benchmarks.Registry.name budget m
  | Ok c ->
    ( {
        schedule = c.Swp_core.Compile.schedule;
        sizing = c.Swp_core.Compile.sizing;
        cuda = Kir.Backend.emit_compiled Kir.Ir.Cuda c;
      },
      Swp_core.Ii_search.log_signature c.Swp_core.Compile.search_stats,
      c.Swp_core.Compile.quality )

let budgeted name budget =
  t (Printf.sprintf "%s: budget %d, --jobs 4 == serial" name budget)
    (fun () ->
      let e =
        match Benchmarks.Registry.find name with
        | Some e -> e
        | None -> Alcotest.failf "unknown benchmark %s" name
      in
      let s_snap, s_sig, s_q =
        with_jobs 1 (fun () -> budgeted_snapshot e ~budget)
      in
      let p_snap, p_sig, p_q =
        with_jobs 4 (fun () -> budgeted_snapshot e ~budget)
      in
      check_equal name s_snap p_snap;
      Alcotest.(check string) (name ^ ": attempt log signature") s_sig p_sig;
      Alcotest.(check string)
        (name ^ ": quality")
        (Swp_core.Compile.quality_name s_q)
        (Swp_core.Compile.quality_name p_q))

(* 25 units degrade BitonicRec (its search needs more committed
   attempts than that, and the seeded fallback ramp must also stay
   deterministic); 100 let DES finish as a refined schedule with the
   ledger active, so portfolio arm racing AND LNS probes are both
   exercised under work accounting — every rung of the ladder stays
   deterministic. *)
let budgeted_cases = [ ("BitonicRec", 25); ("DES", 100) ]

(* ---- golden CUDA fixtures ------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    (fun () -> really_input_string ic (in_channel_length ic))
    ~finally:(fun () -> close_in ic)

let fixture_benchmarks =
  [
    "FMRadio"; "DES"; "Bitonic"; "BitonicRec"; "DCT"; "FFT"; "Filterbank";
    "MatrixMult";
  ]

let fixture_path name =
  Filename.concat (Filename.concat "fixtures" "codegen") (name ^ ".cu")

let first_diff a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

let golden name =
  t (name ^ ": CUDA matches golden fixture") (fun () ->
      let e =
        match Benchmarks.Registry.find name with
        | Some e -> e
        | None -> Alcotest.failf "unknown benchmark %s" name
      in
      let got = with_jobs 4 (fun () -> snapshot e) in
      let want = read_file (fixture_path name) in
      if not (String.equal got.cuda want) then begin
        let i = first_diff got.cuda want in
        let ctx s =
          String.sub s (max 0 (i - 40))
            (min 80 (String.length s - max 0 (i - 40)))
        in
        Alcotest.failf
          "%s: generated CUDA diverges from fixture at byte %d\n\
           fixture:   ...%s...\n\
           generated: ...%s..."
          name i (ctx want) (ctx got.cuda)
      end)

let suite =
  List.map serial_vs_parallel Benchmarks.Registry.all
  @ List.map (fun (n, b) -> budgeted n b) budgeted_cases
  @ List.map golden fixture_benchmarks
