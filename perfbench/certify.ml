(* Workload certify: a closed loop with one client issuing a seeded mix
   of certification jobs on a pool of nproc workers.

   - Series.sum_resumable over p-series (1e6..3e6 terms), journaling a
     snapshot every 150k terms from the progress callback;
   - Series.certify_divergence_resumable over the harmonic series;
   - Criteria.moment_verdict / theorem53_verdict and Classifier.classify
     over Zoo.all_families.

   Series, par, snapshot I/O and the exact moment arithmetic do the
   work; kb and serve do none. *)

module Series = Ipdb_series.Series
module Interval = Ipdb_series.Interval
module Criteria = Ipdb_core.Criteria
module Classifier = Ipdb_core.Classifier
module Zoo = Ipdb_core.Zoo
module Pool = Ipdb_par.Pool
module Journal = Ipdb_run.Journal
module Budget = Ipdb_run.Budget
module Run_error = Ipdb_run.Error

type job =
  | Sum of { p : float; start : int; upto : int }
  | Div of { start : int; upto : int }
  | Moment of { name : string; k : int; upto : int }
  | Thm53 of { name : string; c : int; upto : int }
  | Classify of { name : string; upto : int }

let kind = function
  | Sum _ -> "sum"
  | Div _ -> "divergence"
  | Moment _ -> "moment"
  | Thm53 _ -> "theorem53"
  | Classify _ -> "classify"

let describe = function
  | Sum { p; start; upto } -> Printf.sprintf "sum p=%g start=%d upto=%d" p start upto
  | Div { start; upto } -> Printf.sprintf "divergence start=%d upto=%d" start upto
  | Moment { name; k; upto } -> Printf.sprintf "moment %s k=%d upto=%d" name k upto
  | Thm53 { name; c; upto } -> Printf.sprintf "theorem53 %s c=%d upto=%d" name c upto
  | Classify { name; upto } -> Printf.sprintf "classify %s upto=%d" name upto

let terms = function
  | Sum { start; upto; _ } | Div { start; upto } -> upto - start + 1
  | _ -> 0

let snapshot_every = 150_000

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

let family name = List.assoc name Zoo.all_families

let pick rng l = List.nth l (Random.State.int rng (List.length l))

(* A seeded value within +-2% of [base]. *)
let jitter rng base = int_of_float (float_of_int base *. (0.98 +. Random.State.float rng 0.04))

(* One block of 20 jobs, shuffled: five series jobs (p-series sums of
   ~1e6, 2e6, 2e6 and 3e6 terms, a harmonic divergence check of ~1.5e6
   terms) and fifteen criterion jobs covering every family of
   Zoo.all_families. The seed draws exponents, start indices, moment and
   capacity orders and +-2% of every size; the composition is fixed, and
   the two costliest-but-one series jobs, like the two middle criterion
   jobs, are the same size. So p90 falls inside the 2e6-term sums and p50
   inside the geometric moment checks rather than between two sizes, and
   each percentile is comparable across seeds. *)
let make_block ~seed b =
  let rng = Loop.block_rng ~seed b in
  let start () = 1 + Random.State.int rng 64 in
  let k () = 1 + Random.State.int rng 4 in
  let sum upto = Sum { p = pick rng [ 2.0; 2.5; 3.0 ]; start = start (); upto = jitter rng upto } in
  let moment name upto = Moment { name; k = k (); upto = jitter rng upto } in
  let thm53 name upto = Thm53 { name; c = k (); upto = jitter rng upto } in
  let classify name upto = Classify { name; upto = jitter rng upto } in
  let jobs =
    [ sum 1_000_000; sum 2_000_000; sum 2_000_000; sum 3_000_000;
      Div { start = start (); upto = jitter rng 1_500_000 };
      classify "geometric" 2000; classify "sensor-bounded" 2000; classify "example-3.5" 2000;
      moment "sensor-bounded" 900; thm53 "sensor-bounded" 900;
      moment "example-3.5" 55; thm53 "example-3.5" 55;
      thm53 "example-3.9" 5000; moment "sqrt-growth" 5000;
      moment "geometric" 10_000; moment "geometric" 10_000;
      classify "sqrt-growth" 4000; classify "example-5.5" 4000; thm53 "geometric" 20_000;
      classify "example-3.9" 4000 ]
  in
  Loop.shuffle rng (Array.of_list jobs)

let block_size = 20

(* ------------------------------------------------------------------ *)
(* References                                                          *)
(* ------------------------------------------------------------------ *)

(* zeta(p) less the prefix n < start: direct summation below 1000, then
   Euler-Maclaurin. Accurate to ~1e-15, far inside the enclosure's
   rounding slack. *)
let pseries_from ~p ~start =
  let s = ref 0.0 in
  for n = 999 downto start do
    s := !s +. Float.pow (float_of_int n) (-.p)
  done;
  let n = 1000.0 in
  !s
  +. (Float.pow n (1.0 -. p) /. (p -. 1.0))
  +. (0.5 *. Float.pow n (-.p))
  +. (p /. 12.0 *. Float.pow n (-.p -. 1.0))
  -. (p *. (p +. 1.0) *. (p +. 2.0) /. 720.0 *. Float.pow n (-.p -. 3.0))

(* H(upto) - H(start-1), asymptotically. *)
let harmonic_between ~start ~upto =
  let n = float_of_int upto in
  let h = log n +. 0.57721566490153286 +. (1.0 /. (2.0 *. n)) -. (1.0 /. (12.0 *. n *. n)) in
  let prefix = ref 0.0 in
  for i = 1 to start - 1 do
    prefix := !prefix +. (1.0 /. float_of_int i)
  done;
  h -. !prefix

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type state = {
  pool : Pool.t option;
  journal : Journal.t;
  budget : Budget.t;
  mutable snap_times : float list;  (* seconds per progress callback *)
  mutable snap_errors : string list;
}

type outcome =
  | Sum_out of (Series.budgeted * Series.Snapshot.t, Run_error.t) result
  | Div_out of (Series.divergence_budgeted * Series.Snapshot.t, Run_error.t) result
  | Crit_out of Criteria.series_verdict
  | Class_out of Classifier.verdict

let pterm p n = 1.0 /. Float.pow (float_of_int n) p
let harmonic n = 1.0 /. float_of_int n

let progress st snap =
  let line = Series.Snapshot.to_string snap in
  let r, dt = Probe.timed (fun () -> Probe.span "run" "journal_append" (fun () -> Journal.append st.journal line)) in
  st.snap_times <- dt :: st.snap_times;
  match r with Ok () -> () | Error e -> st.snap_errors <- Run_error.to_string e :: st.snap_errors

let exec st job =
  let pool = st.pool and budget = st.budget in
  match job with
  | Sum { p; start; upto } ->
      Sum_out
        (Probe.span "series" "sum_resumable" (fun () ->
             Series.sum_resumable ?pool ~budget ~start ~progress:(progress st)
               ~progress_every:snapshot_every (pterm p)
               ~tail:(Series.Tail.P_series { index = start; coeff = 1.0; p })
               ~upto))
  | Div { start; upto } ->
      Div_out
        (Probe.span "series" "certify_divergence_resumable" (fun () ->
             Series.certify_divergence_resumable ?pool ~budget ~start ~progress:(progress st)
               ~progress_every:snapshot_every harmonic
               ~certificate:(Series.Divergence.Harmonic { index = start; coeff = 1.0 })
               ~upto))
  | Moment { name; k; upto } ->
      let cf = family name in
      let cert = Option.get (cf.Zoo.moment_cert k) in
      Crit_out
        (Probe.span "core" "moment_verdict" (fun () ->
             Criteria.moment_verdict ?pool ~budget cf.Zoo.family ~k ~cert
               ~upto:(min upto cf.Zoo.check_upto)))
  | Thm53 { name; c; upto } ->
      let cf = family name in
      let cert = Option.get (cf.Zoo.thm53_cert c) in
      Crit_out
        (Probe.span "core" "theorem53_verdict" (fun () ->
             Criteria.theorem53_verdict ?pool ~budget cf.Zoo.family ~c ~cert
               ~upto:(min upto cf.Zoo.check_upto)))
  | Classify { name; upto } ->
      Class_out (Probe.span "core" "classify" (fun () -> Classifier.classify ?pool ~budget ~upto (family name)))

(* The canonical bytes of an outcome, for the repeat-determinism check. *)
let fingerprint = function
  | Sum_out (Ok (Series.Complete e, snap)) ->
      Printf.sprintf "%Lx %Lx %s" (Int64.bits_of_float (Interval.lo e))
        (Int64.bits_of_float (Interval.hi e)) (Series.Snapshot.to_string snap)
  | Div_out (Ok (Series.Div_complete { partial; at }, _)) ->
      Printf.sprintf "%Lx %d" (Int64.bits_of_float partial) at
  | Crit_out v -> Criteria.verdict_serialize v
  | Class_out v -> Classifier.verdict_to_string v
  | _ -> "incomplete"

(* Whether a certified moment verdict agrees with the paper's verdict on
   the family. Proposition 3.4: a PDB in FO(TI) has every moment finite. *)
let moment_consistent cf = function
  | Criteria.Finite_sum _ -> true
  | Criteria.Infinite_sum _ -> cf.Zoo.expected_in_foti <> Some true
  | _ -> false

(* The same for a Theorem 5.3 verdict: a convergent criterion series puts
   the PDB in FO(TI). *)
let thm53_consistent cf = function
  | Criteria.Finite_sum _ -> cf.Zoo.expected_in_foti <> Some false
  | Criteria.Infinite_sum _ -> true
  | _ -> false

(* Whether an outcome is a correct certified verdict. *)
let verdict_ok job out =
  match (job, out) with
  | Sum { p; start; _ }, Sum_out (Ok (Series.Complete e, _)) ->
      let v = pseries_from ~p ~start in
      if Interval.lo e <= v && v <= Interval.hi e then Ok ()
      else Error (Printf.sprintf "enclosure [%.17g, %.17g] misses %.17g" (Interval.lo e) (Interval.hi e) v)
  | Div { start; upto }, Div_out (Ok (Series.Div_complete { partial; at }, _)) ->
      let v = harmonic_between ~start ~upto in
      if at = upto && Float.abs (partial -. v) < 1e-6 then Ok ()
      else Error (Printf.sprintf "witness %.17g at %d, expected %.17g at %d" partial at v upto)
  | Moment { name; _ }, Crit_out v ->
      if moment_consistent (family name) v then Ok () else Error (Criteria.verdict_to_string v)
  | Thm53 { name; _ }, Crit_out v ->
      if thm53_consistent (family name) v then Ok () else Error (Criteria.verdict_to_string v)
  | Classify { name; _ }, Class_out v -> (
      match v with
      | Classifier.Partial _ -> Error (Classifier.verdict_to_string v)
      | _ ->
          if Classifier.agrees_with_paper (family name) v then Ok ()
          else Error ("disagrees with the paper: " ^ Classifier.verdict_to_string v))
  | _, Sum_out (Error e) | _, Div_out (Error e) -> Error (Run_error.to_string e)
  | _ -> Error "incomplete verdict"

let verify report memo st job out =
  let errs = st.snap_errors in
  st.snap_errors <- [];
  List.iter (fun e -> Report.fail report "%s: snapshot journal: %s" (describe job) e) errs;
  Report.attempt report;
  match verdict_ok job out with
  | Error msg -> Report.fail report "%s: %s" (describe job) msg
  | Ok () -> (
      let fp = fingerprint out in
      match Hashtbl.find_opt memo job with
      | None -> Hashtbl.replace memo job fp
      | Some first -> if first <> fp then Report.fail report "%s: repeat differs from first run" (describe job))

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type env = { dir : string; jobs : int; workers : Pool.t; snapshots : Journal.t }

let state ?(jobs1 = false) ?(budget = Budget.unlimited) env =
  {
    pool = (if jobs1 then None else Some env.workers);
    journal = env.snapshots;
    budget;
    snap_times = [];
    snap_errors = [];
  }

(* One small job of each kind: a fresh process pays for its first calls
   (code and data caches, the series engine's buffers) once. *)
let warmup =
  [ Sum { p = 2.5; start = 1; upto = 300_000 }; Div { start = 1; upto = 300_000 };
    Moment { name = "geometric"; k = 1; upto = 10_000 }; Thm53 { name = "geometric"; c = 1; upto = 10_000 };
    Classify { name = "example-3.9"; upto = 2000 } ]

(* Pool start, the snapshot journal in a fresh directory, and the
   warm-up jobs. *)
let setup ~tmp =
  let dir = Probe.fresh_dir tmp "certify" in
  let jobs = Report.nproc () in
  let workers = Pool.create ~jobs () in
  match Journal.open_append ~path:(Filename.concat dir "snapshots.wal") () with
  | Error e -> failwith ("snapshot journal: " ^ Run_error.to_string e)
  | Ok snapshots ->
      let env = { dir; jobs; workers; snapshots } in
      let st = state env in
      List.iter (fun j -> ignore (exec st j)) warmup;
      env

let teardown env =
  Pool.shutdown env.workers;
  Journal.close env.snapshots;
  Probe.remove_tree env.dir

(* ------------------------------------------------------------------ *)
(* Measurements                                                        *)
(* ------------------------------------------------------------------ *)

let ms xs = List.map (fun s -> s *. 1e3) xs
let seconds_of kinds samples = List.filter_map (fun (j, s) -> if List.mem (kind j) kinds then Some s else None) samples

(* jobs=1 and jobs=nproc give bit-identical enclosures (checked once per
   run); also the jobs1/jobsN time ratio of that job, median of 3. *)
let parallel_check report env =
  let job = Sum { p = 2.5; start = 1; upto = 1_000_000 } in
  let run jobs1 = Probe.timed (fun () -> exec (state ~jobs1 env) job) in
  let o1, _ = run true and on, _ = run false in
  Report.check report
    (fingerprint o1 = fingerprint on && fingerprint o1 <> "incomplete")
    "jobs=1 and jobs=%d enclosures differ" env.jobs;
  Stats.median (List.init 3 (fun _ -> Stats.ratio (snd (run true)) (snd (run false))))

let loop ?warm report env ~seconds ~first ~seed =
  let st = state env in
  let memo = Hashtbl.create 256 in
  let samples, wall, next, blocks =
    Loop.closed ~seconds ~first ?warm ~make_block:(make_block ~seed) ~exec:(exec st) ~verify:(verify report memo st) ()
  in
  (samples, wall, next, blocks, st)

let terms_per_s samples wall = float_of_int (List.fold_left (fun a (j, _) -> a + terms j) 0 samples) /. wall

let run_untraced report ~tmp ~seed ~seconds ~setups =
  let runs = ref [] and env = ref None in
  for _ = 1 to setups do
    Option.iter teardown !env;
    env := None;
    Gc.compact ();
    let e, dt, steal = Probe.timed_steal (fun () -> setup ~tmp) in
    runs := (dt, steal) :: !runs;
    env := Some e
  done;
  let env = Option.get !env in
  Report.setups report (List.rev !runs);
  let samples, _, _, blocks, _ = loop report env ~seconds:(float_of_int seconds) ~first:0 ~seed in
  Report.latencies report ~ops_per_s:(Loop.calm_rate ~size:block_size blocks) ~block:block_size
    ~steal:(List.map snd blocks) (ms (List.map snd samples));
  List.iter
    (fun k -> Report.samples report ("latency_ms." ^ k) (ms (seconds_of [ k ] samples)))
    [ "sum"; "divergence"; "moment"; "theorem53"; "classify" ];
  ignore (parallel_check report env);
  Report.metric report "peak_rss_mb" (Probe.peak_rss_mb ());
  teardown env

(* The deterministic counts of one block at jobs=1: series terms, budget
   steps, journal fsyncs and snapshots (checked path, metrics on), and
   allocated words (default fast path, metrics off). *)
let count_pass env ~seed =
  let jobs = make_block ~seed 0 in
  let counted =
    Probe.counting (fun () ->
        let c0 = Probe.counter "series.terms" and s0 = Probe.counter "budget.steps"
        and f0 = Probe.counter "journal.fsyncs" in
        let st = state ~jobs1:true ~budget:(Budget.make ~max_steps:max_int ()) env in
        Array.iter (fun j -> ignore (exec st j)) jobs;
        [ ("series.terms", Probe.counter "series.terms" - c0);
          ("run.budget_steps", Probe.counter "budget.steps" - s0);
          ("run.journal_fsyncs", Probe.counter "journal.fsyncs" - f0);
          ("series.snapshots", List.length st.snap_times) ])
  in
  let series = List.filter (fun j -> terms j > 0) (Array.to_list jobs) in
  let st = state ~jobs1:true env in
  let (), words = Probe.alloc_words (fun () -> List.iter (fun j -> ignore (exec st j)) series) in
  let n_terms = List.fold_left (fun a j -> a + terms j) 0 series in
  (counted @ [ ("series.alloc_words", int_of_float words) ], Array.length jobs, List.length series, n_terms)

let record_counts report env ~seed =
  (* Two same-seed count passes must agree exactly. *)
  let counts, n_jobs, n_series, n_terms = count_pass env ~seed in
  let again, _, _, _ = count_pass env ~seed in
  Report.check report (counts = again) "deterministic counts differ between two same-seed passes";
  List.iter (fun (n, c) -> Report.count report n c) counts;
  let count n = float_of_int (List.assoc n counts) in
  Report.metric report "series.terms" (count "series.terms");
  Report.metric report "run.budget_steps" (count "run.budget_steps" /. float_of_int n_jobs);
  Report.metric report "run.journal_fsyncs" (count "run.journal_fsyncs" /. float_of_int n_jobs);
  Report.metric report "series.snapshots" (count "series.snapshots" /. float_of_int n_series);
  Report.metric report "series.alloc_words_per_term"
    (count "series.alloc_words" /. float_of_int n_terms)

(* Untraced half, then the traced half over the following blocks. *)
let run_traced report ~tmp ~seed ~seconds =
  let env = setup ~tmp in
  record_counts report env ~seed;
  let half = float_of_int seconds /. 2.0 in
  let plain, plain_wall, next, _, _ = loop report env ~seconds:half ~first:0 ~seed in
  let (traced, wall, _, _, st), lines =
    Probe.traced (fun () -> loop ~warm:false report env ~seconds:half ~first:next ~seed)
  in
  let spans = Spans.parse lines in
  let n = float_of_int (List.length traced) in
  let lat xs = ms (List.map snd xs) in
  Report.metric report "terms_per_s" (terms_per_s plain plain_wall);
  Report.metric report "obs.trace_overhead"
    (Stats.ratio (Stats.median (lat traced)) (Stats.median (lat plain)));
  Report.metric report "par.tasks" (float_of_int (Probe.counter "pool.tasks") /. n);
  Report.metric report "par.helped" (float_of_int (Probe.counter "pool.helped") /. n);
  Report.metric report "par.queue_peak" (Probe.gauge "pool.queue_peak");
  Report.metric report "par.task_us_p50" (Probe.histogram_p50 "pool.task_us");
  Report.metric report "series.ns_per_term"
    (Stats.ratio
       (Stats.sum (seconds_of [ "sum"; "divergence" ] traced) *. 1e9)
       (float_of_int (Probe.counter "series.terms")));
  Report.metric report "series.sum_s" (Stats.median (seconds_of [ "sum" ] traced));
  Report.metric report "series.divergence_s" (Stats.median (seconds_of [ "divergence" ] traced));
  Report.metric report "series.outside_chunk_share" (Spans.outside_chunk_share spans);
  Report.metric report "series.snapshot_s" (Stats.mean st.snap_times);
  Report.metric report "run.journal_append_us_p50"
    (Stats.median (List.map (fun s -> s *. 1e6) st.snap_times));
  Report.metric report "core.criteria_s" (Stats.median (seconds_of [ "moment"; "theorem53" ] traced));
  Report.metric report "core.classify_s" (Stats.median (seconds_of [ "classify" ] traced));
  Report.metric report "core.classify_probes"
    (Stats.ratio
       (float_of_int (List.length (Spans.named "classify.probe" spans)))
       (float_of_int (List.length (seconds_of [ "classify" ] traced))));
  Report.metric report "par.jobs1_over_jobsN" (parallel_check report env);
  Report.samples report "latency_ms.untraced" (lat plain);
  Report.samples report "latency_ms.traced" (lat traced);
  Report.metric report "peak_rss_mb" (Probe.peak_rss_mb ());
  teardown env;
  Spans.closed_loop ~spans lines ~wall
