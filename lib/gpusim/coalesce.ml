type access_summary = {
  transactions : int;
  bytes_moved : int;
  coalesced : bool;
}

(* Traffic telemetry: every analysed warp access classifies as coalesced
   or serialized, and its padded bus bytes accumulate.  These run inside
   the (memoized) profiling sweep and the executor, not per simulated
   cycle, so the counter adds are noise. *)
let m_coalesced = Obs.Metrics.counter "gpusim.warp_accesses.coalesced"
let m_uncoalesced = Obs.Metrics.counter "gpusim.warp_accesses.uncoalesced"
let m_bus_bytes = Obs.Metrics.counter "gpusim.bus_bytes"
let m_bank_conflicts = Obs.Metrics.counter "gpusim.bank_conflicts"

let analyze_warp (a : Arch.t) ~elem_bytes ~tid_to_index =
  let half = a.warp_size / 2 in
  let seg_elems = a.segment_bytes / elem_bytes in
  let trans = ref 0 and bytes = ref 0 and coal = ref true in
  for hw = 0 to 1 do
    let base_tid = hw * half in
    let base_addr = tid_to_index base_tid in
    (* Compute-1.x rule: thread base_tid+k must access base_addr+k and the
       base must be segment-aligned. *)
    let ok = ref (base_addr mod seg_elems = 0) in
    for k = 0 to half - 1 do
      if tid_to_index (base_tid + k) <> base_addr + k then ok := false
    done;
    if !ok then begin
      incr trans;
      bytes := !bytes + (half * elem_bytes)
    end
    else begin
      (* serialized: one minimum-size transaction per thread *)
      trans := !trans + half;
      bytes := !bytes + (half * a.min_transaction_bytes);
      coal := false
    end
  done;
  Obs.Metrics.inc (if !coal then m_coalesced else m_uncoalesced);
  Obs.Metrics.add m_bus_bytes !bytes;
  { transactions = !trans; bytes_moved = !bytes; coalesced = !coal }

let natural_index ~pop_or_push_rate ~n tid = (tid * pop_or_push_rate) + n

let shuffled_index ~rate ~cluster ~n tid =
  (cluster * n) + (tid / cluster * cluster * rate) + (tid mod cluster)

(* Both closed forms below rest on the shuffled layout's geometry: a
   half-warp never straddles a 128-thread cluster, a coalescing segment
   never straddles a half-warp, and a minimum-size segment never
   straddles a cluster row.  All three hold on the 8800. *)
let cluster = 128

let check_geometry (a : Arch.t) ~elem_bytes =
  let half = a.warp_size / 2 in
  let seg = a.segment_bytes / elem_bytes in
  let min_seg = max 1 (a.min_transaction_bytes / elem_bytes) in
  assert (half >= 2 && a.warp_size = 2 * half && cluster mod half = 0);
  assert (seg >= 1 && half mod seg = 0);
  assert (cluster mod min_seg = 0)

(* Every shuffled access, and a rate-1 natural one, is [WarpBase + tid]
   with a segment-aligned base (Sec. IV-D): one transaction per
   half-warp.  Any other natural access strides, so each thread pays its
   own minimum-size transaction. *)
let traffic_per_firing (a : Arch.t) ~rate ~threads ~shuffled =
  let elem_bytes = Streamit.Types.elem_size_bytes in
  check_geometry a ~elem_bytes;
  let half = a.warp_size / 2 in
  let accesses = Arch.threads_to_warps a threads * max 0 rate in
  let coalesced = shuffled || rate = 1 in
  let trans, bytes =
    if coalesced then (2 * accesses, 2 * accesses * half * elem_bytes)
    else
      let t = 2 * accesses * half in
      (t, t * a.min_transaction_bytes)
  in
  Obs.Metrics.add (if coalesced then m_coalesced else m_uncoalesced) accesses;
  Obs.Metrics.add m_bus_bytes bytes;
  (trans, bytes)

let transactions_per_firing a ~rate ~threads ~shuffled =
  fst (traffic_per_firing a ~rate ~threads ~shuffled)

(* Under eq. (11) with producer rate [p], token [s] sits at element
   [128 (s mod p) + 128 p (q / 128) + q mod 128] with [q = s / p], so
   with [seg] dividing 128 its minimum-size segment is identified by the
   pair [(s mod p, s / (seg p))]: counting distinct segments is counting
   distinct pairs. *)
let cross_traffic ?(cached = true) (a : Arch.t) ~prod_rate ~cons_rate ~threads
    =
  let elem_bytes = Streamit.Types.elem_size_bytes in
  check_geometry a ~elem_bytes;
  let p = max 1 prod_rate in
  let c = max 1 cons_rate in
  let block = max 1 (a.min_transaction_bytes / elem_bytes) * p in
  let warps = Arch.threads_to_warps a threads in
  let half = a.warp_size / 2 in
  let segments = ref 0 in
  if cached then
    (* Filter reads go through the texture cache, whose lines hold a
       warp's pass window, so traffic is the set of *distinct* segments
       the warp touches across all of its accesses: small-stride
       mismatches (re-touching neighbouring addresses) cost nothing
       extra, while genuine scatter fetches one padded segment per
       element.  A warp reads the contiguous tokens [lo, hi); each
       [block] of [seg p] tokens contributes as many segments as the
       distinct [s mod p] it overlaps. *)
    for w = 0 to warps - 1 do
      let lo = w * a.warp_size * c in
      let hi = lo + (a.warp_size * c) in
      let b0 = lo / block and b1 = (hi - 1) / block in
      segments :=
        !segments
        +
        if b0 = b1 then min p (hi - lo)
        else
          min p (((b0 + 1) * block) - lo)
          + ((b1 - b0 - 1) * p)
          + min p (hi - (b1 * block))
    done
  else begin
    (* Splitter/joiner gathers read and write the same buffers, so they
       use plain (uncached) global loads: every simultaneous half-warp
       access pays its distinct segments with no reuse across access
       instants — the compute-1.x transaction rule.  The half-warp's
       tokens [s0 + k c] split into runs sharing a block; within a run
       [s mod p] repeats with period [p / gcd c p]. *)
    let period = p / Numeric.Intmath.gcd c p in
    for w = 0 to warps - 1 do
      for n = 0 to c - 1 do
        for hw = 0 to 1 do
          let s0 = (((w * a.warp_size) + (hw * half)) * c) + n in
          let run = ref 0 and run_block = ref (s0 / block) in
          for k = 0 to half - 1 do
            let b = (s0 + (k * c)) / block in
            if b <> !run_block then begin
              segments := !segments + min !run period;
              run := 0;
              run_block := b
            end;
            incr run
          done;
          segments := !segments + min !run period
        done
      done
    done
  end;
  (!segments, !segments * a.min_transaction_bytes)

let shared_bank_conflict_degree (a : Arch.t) ~tid_to_index =
  let half = a.warp_size / 2 in
  let counts = Array.make a.shared_mem_banks 0 in
  let worst = ref 1 in
  for hw = 0 to 1 do
    Array.fill counts 0 a.shared_mem_banks 0;
    for k = 0 to half - 1 do
      let bank = tid_to_index ((hw * half) + k) mod a.shared_mem_banks in
      counts.(bank) <- counts.(bank) + 1;
      if counts.(bank) > !worst then worst := counts.(bank)
    done
  done;
  if !worst > 1 then Obs.Metrics.inc m_bank_conflicts;
  !worst
