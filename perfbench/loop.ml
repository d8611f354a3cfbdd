(* The closed loop shared by certify and kb-query: one client issues a
   seeded sequence of jobs, each after the previous one completed.

   Jobs come in blocks of fixed composition (shuffled per block from the
   seed), and the loop only stops between blocks, once [seconds] have
   passed. Every run therefore measures the same mix in the same
   proportions, whatever the seed, so its percentiles are comparable
   across seeds and commits. *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Generator of block [b] for [seed]: its own PRNG stream, so the inputs
   depend only on (seed, block index). *)
let block_rng ~seed b = Random.State.make [| 0x9e1; seed; b |]

(* Runs block [first] untimed unless [warm] is false (caches, lazy state
   and the host settle), then the following blocks until [seconds] have
   passed. [exec] is timed; [verify] runs untimed on its outcome. Returns
   the (job, seconds) samples in issue order, the wall time, the next
   block, and per block its seconds and steal share (Probe.steal_share). *)
let closed ~seconds ?(first = 0) ?(warm = true) ~make_block ~exec ~verify () =
  if warm then Array.iter (fun job -> verify job (exec job)) (make_block first);
  let first = if warm then first + 1 else first in
  let t0 = Unix.gettimeofday () in
  let samples = ref [] and blocks = ref [] in
  let rec go b =
    if Unix.gettimeofday () -. t0 >= seconds then b
    else begin
      let c0 = Probe.host_cpu () and tb = Unix.gettimeofday () in
      Array.iter
        (fun job ->
          let t = Unix.gettimeofday () in
          let out = exec job in
          let dt = Unix.gettimeofday () -. t in
          samples := (job, dt) :: !samples;
          verify job out)
        (make_block b);
      blocks := (Unix.gettimeofday () -. tb, Probe.steal_share c0 (Probe.host_cpu ())) :: !blocks;
      go (b + 1)
    end
  in
  let next = go first in
  (List.rev !samples, Unix.gettimeofday () -. t0, next, List.rev !blocks)

(* Jobs per second over the calm blocks (Stats.calm) of [blocks] blocks
   of [size] jobs. *)
let calm_rate ~size blocks =
  let steal = List.map snd blocks in
  let calm = Stats.calm ~steal (List.map fst blocks) in
  Stats.ratio (float_of_int (size * List.length calm)) (Stats.sum calm)
