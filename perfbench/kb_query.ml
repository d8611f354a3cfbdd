(* Workload kb-query: a closed loop with one client running a seeded mix
   of Lifted.query shapes with the pool over a 1e5-fact R/2, S/2, T/1
   knowledge base.

   Set-up generates the kb (Kbgen: Generate.kb_stream), writes it
   (Kbfile.write), loads it (Kbfile.load) and runs every query once, which
   builds the lazy store indexes. The loop then mixes:
   - project   ∃x∃y R(x,y)        one exact product over every R fact;
   - union     T(c) ∨ ∃x∃y S(x,y) inclusion–exclusion around the same;
   - join      ∃x (T(x) ∧ ∃y S(x,y));
   - selective ∃y R(c,y) and ∃x T(x), bound by index lookups.
   Series and serve are idle. *)

module Q = Ipdb_bignum.Q
module Nat = Ipdb_bignum.Nat
module Zint = Ipdb_bignum.Zint
module Value = Ipdb_relational.Value
module Fo = Ipdb_logic.Fo
module Budget = Ipdb_run.Budget
module Run_error = Ipdb_run.Error
module Pool = Ipdb_par.Pool
module Store = Ipdb_kb.Store
module Kbfile = Ipdb_kb.Kbfile
module Lifted = Ipdb_kb.Lifted

let facts = 100_000

(* The fact space stays ~8x the request, so Floyd sampling is sparse:
   2u^2 + u >= 8 * facts. *)
let universe = 1024

type query = { shape : string; text : string; phi : Fo.t }

let v x = Fo.V x
let c n = Fo.C (Value.int n)
let ex x b = Fo.Exists (x, b)
let atom r args = Fo.Atom (r, args)
let project = { shape = "project"; text = "∃x∃y R(x,y)"; phi = ex "x" (ex "y" (atom "R" [ v "x"; v "y" ])) }

let union k =
  {
    shape = "union";
    text = Printf.sprintf "T(%d) ∨ ∃x∃y S(x,y)" k;
    phi = Fo.Or (atom "T" [ c k ], ex "x" (ex "y" (atom "S" [ v "x"; v "y" ])));
  }

let join =
  { shape = "join"; text = "∃x (T(x) ∧ ∃y S(x,y))"; phi = ex "x" (Fo.And (atom "T" [ v "x" ], ex "y" (atom "S" [ v "x"; v "y" ]))) }

let select_r k = { shape = "selective"; text = Printf.sprintf "∃y R(%d,y)" k; phi = ex "y" (atom "R" [ c k; v "y" ]) }
let select_t = { shape = "selective"; text = "∃x T(x)"; phi = ex "x" (atom "T" [ v "x" ]) }
let shapes = [ "project"; "union"; "join"; "selective" ]

(* The run's distinct queries: constants drawn from the seed. A union's
   T(c) is never a stored fact, so every union costs one exact product
   (a stored T(c) would add the conjunction term of inclusion–exclusion,
   a second product, on some seeds only). *)
type inputs = { unions : query array; selects : query array }

let inputs ~seed store =
  let rng = Random.State.make [| 0x4b; seed |] in
  let rec absent_from_t () =
    let c = Random.State.int rng universe in
    if Q.is_zero (Store.marginal store ~rel:"T" [| Value.int c |]) then c else absent_from_t ()
  in
  let draw n = Array.init n (fun _ -> Random.State.int rng universe) in
  { unions = Array.init 3 (fun _ -> union (absent_from_t ())); selects = Array.map select_r (draw 16) }

let distinct inp = (project :: join :: select_t :: Array.to_list inp.unions) @ Array.to_list inp.selects

(* One block of 20 queries, shuffled: 7 selective (4 ∃y R(c,y), 3
   ∃x T(x)), 6 join, 2 union and 5 project. Sorted by cost the selective
   queries come first, so p50 falls in the middle of the join queries
   (index lookups and small products); p90 and p99 fall inside the
   project and union queries, one exact product each. *)
let make_block inp ~seed b =
  let rng = Loop.block_rng ~seed b in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let jobs =
    List.init 4 (fun _ -> pick inp.selects)
    @ [ select_t; select_t; select_t; join; join; join; join; join; join; pick inp.unions; pick inp.unions;
        project; project; project; project; project ]
  in
  Loop.shuffle rng (Array.of_list jobs)

let block_size = 20

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type env = {
  dir : string;
  pool : Pool.t;
  store : Store.t;
  inp : inputs;
  write_s : float;
  load_s : float;
}

let counted () = Budget.make ~max_steps:max_int ()

let query ?pool store q =
  let budget = counted () in
  match Lifted.query ?pool ~budget store q.phi with
  | Ok (Lifted.Exact p) -> Ok (p, Budget.steps_used budget)
  | Ok (Lifted.Estimated _) -> Error "safe query fell back to sampling"
  | Error e -> Error (Run_error.to_string e)

(* Generate + write, load, then warm every query once (index builds). *)
let setup ~tmp ~seed =
  let dir = Probe.fresh_dir tmp "kb" in
  let path = Filename.concat dir "facts.kb" in
  let (), write_s =
    Probe.timed (fun () -> Probe.span "kb" "write" (fun () -> Kbgen.write ~path ~seed ~facts ~universe))
  in
  let loaded, load_s = Probe.timed (fun () -> Probe.span "kb" "load" (fun () -> Kbfile.load path)) in
  let store =
    match loaded with
    | Ok l -> l.Kbfile.store
    | Error e -> failwith ("kb load: " ^ Run_error.to_string e)
  in
  let pool = Pool.create ~jobs:(Report.nproc ()) () in
  let inp = inputs ~seed store in
  List.iter (fun q -> ignore (query ~pool store q)) (distinct inp);
  { dir; pool; store; inp; write_s; load_s }

let teardown env =
  Pool.shutdown env.pool;
  Probe.remove_tree env.dir

(* Serial reference answers: the pooled loop must match them exactly,
   result and steps. *)
let references env =
  let tbl = Hashtbl.create 16 in
  List.iter (fun q -> Hashtbl.replace tbl q.text (query env.store q)) (distinct env.inp);
  tbl

let verify report refs q out =
  Report.attempt report;
  match (out, Hashtbl.find_opt refs q.text) with
  | Ok (p, steps), Some (Ok (p', steps')) ->
      if not (Q.equal p p') then Report.fail report "%s: pool result differs from serial" q.text
      else if steps <> steps' then Report.fail report "%s: pool took %d steps, serial %d" q.text steps steps'
  | Error e, _ -> Report.fail report "%s: %s" q.text e
  | _, Some (Error e) -> Report.fail report "%s: serial reference: %s" q.text e
  | _, None -> Report.fail report "%s: no reference" q.text

let loop ?warm report env refs ~seconds ~first ~seed =
  let steps = ref 0 in
  let exec q =
    let out = Probe.span "kb" "query" (fun () -> query ~pool:env.pool env.store q) in
    (match out with Ok (_, s) -> steps := !steps + s | Error _ -> ());
    out
  in
  let samples, wall, next, blocks =
    Loop.closed ~seconds ~first ?warm ~make_block:(make_block env.inp ~seed) ~exec
      ~verify:(verify report refs) ()
  in
  (samples, wall, next, blocks, !steps)

let ms_of shape samples = List.filter_map (fun (q, s) -> if q.shape = shape then Some (s *. 1e3) else None) samples


let run_untraced report ~tmp ~seed ~seconds ~setups =
  let runs = ref [] and env = ref None in
  for _ = 1 to setups do
    (* the previous store must be unreachable before the collection, so
       each set-up (and the peak RSS) is that of one kb *)
    Option.iter teardown !env;
    env := None;
    Gc.compact ();
    let e, dt, steal = Probe.timed_steal (fun () -> setup ~tmp ~seed) in
    runs := (dt, steal, e.write_s, e.load_s) :: !runs;
    env := Some e
  done;
  let env = Option.get !env in
  let runs = List.rev !runs in
  let col f = List.map f runs in
  Report.setups report (col (fun (s, steal, _, _) -> (s, steal)));
  Report.samples report "kb.write_s" (col (fun (_, _, w, _) -> w));
  Report.samples report "kb.load_s" (col (fun (_, _, _, l) -> l));
  let refs = references env in
  let samples, _, _, blocks, _ = loop report env refs ~seconds:(float_of_int seconds) ~first:0 ~seed in
  Report.latencies report ~ops_per_s:(Loop.calm_rate ~size:block_size blocks) ~block:block_size
    ~steal:(List.map snd blocks) (List.map (fun (_, s) -> s *. 1e3) samples);
  List.iter (fun s -> Report.samples report ("latency_ms." ^ s) (ms_of s samples)) shapes;
  Report.metric report "peak_rss_mb" (Probe.peak_rss_mb ());
  teardown env

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)
(* ------------------------------------------------------------------ *)

(* Block 0 serially with counting on: steps, candidates and subsets per
   query, plus the words one serial project query allocates. *)
let count_pass env ~seed =
  let jobs = make_block env.inp ~seed 0 in
  let counts =
    Probe.counting (fun () ->
        let s0 = ref 0 in
        let c0 = Probe.counter "kb.query.candidates" and u0 = Probe.counter "kb.query.subsets" in
        Array.iter (fun q -> match query env.store q with Ok (_, s) -> s0 := !s0 + s | Error _ -> ()) jobs;
        [ ("run.budget_steps", !s0);
          ("kb.candidates", Probe.counter "kb.query.candidates" - c0);
          ("kb.subsets", Probe.counter "kb.query.subsets" - u0) ])
  in
  let _, words = Probe.alloc_words (fun () -> query env.store project) in
  (counts @ [ ("bignum.alloc_words", int_of_float words) ], Array.length jobs)

(* Time [f] over enough repetitions to fill [probe_seconds]; seconds per
   call. *)
let probe_seconds = 0.05

let per_call f =
  let rec go n =
    let (), dt = Probe.timed (fun () -> for _ = 1 to n do f () done) in
    if dt >= probe_seconds then dt /. float_of_int n else go (n * 4)
  in
  go 1

(* Store lookups on existing facts: marginals and warm index probes. *)
let store_probes report env =
  let probes = ref [] and i = ref 0 in
  Store.iter env.store (fun rel args _ ->
      incr i;
      if !i land 63 = 0 then probes := (rel, args) :: !probes);
  let probes = Array.of_list !probes in
  let marginal = per_call (fun () -> Array.iter (fun (rel, args) -> ignore (Store.marginal env.store ~rel args)) probes) in
  Report.metric report "kb.marginal_ns" (marginal *. 1e9 /. float_of_int (Array.length probes));
  let h = Option.get (Store.handle env.store "R") in
  let keys =
    Array.of_list
      (List.filter_map
         (fun (rel, args) -> if rel = "R" then Store.intern_find env.store args.(0) else None)
         (Array.to_list probes))
  in
  let rows = per_call (fun () -> Array.iter (fun k -> ignore (Store.rows_matching h ~mask:1 ~key:[| k |])) keys) in
  Report.metric report "kb.rows_matching_ns" (rows *. 1e9 /. float_of_int (max 1 (Array.length keys)))

(* A left Q.mul fold over the project query's (1 - p) factors, read with
   Store.row_prob: 1 minus it is the project query's answer. *)
let bignum_fold report env refs =
  let h = Option.get (Store.handle env.store "R") in
  let factors = List.init (Store.handle_rows h) (fun r -> Q.one_minus (Store.row_prob h r)) in
  let fold () = Probe.span "bignum" "fold" (fun () -> List.fold_left Q.mul Q.one factors) in
  let prod, dt = Probe.timed fold in
  Report.metric report "bignum.fold_ms" (dt *. 1e3);
  let bits = Nat.bit_length (Q.den prod) + Nat.bit_length (Zint.to_nat (Zint.abs (Q.num prod))) in
  Report.metric report "bignum.result_bits" (float_of_int bits);
  match Hashtbl.find_opt refs project.text with
  | Some (Ok (p, _)) -> Report.check report (Q.equal (Q.one_minus prod) p) "bignum fold disagrees with the project query"
  | _ -> Report.fail report "no project reference for the bignum fold"

let run_traced report ~tmp ~seed ~seconds =
  let env = setup ~tmp ~seed in
  Report.metric report "kb.write_s" env.write_s;
  Report.metric report "kb.load_s" env.load_s;
  Report.metric report "ingest_facts_per_s" (float_of_int facts /. env.load_s);
  let refs = references env in
  let counts, n = count_pass env ~seed in
  let again, _ = count_pass env ~seed in
  Report.check report (counts = again) "deterministic counts differ between two same-seed passes";
  List.iter (fun (k, c) -> Report.count report k c) counts;
  let per_query k = float_of_int (List.assoc k counts) /. float_of_int n in
  Report.metric report "run.budget_steps" (per_query "run.budget_steps");
  Report.metric report "kb.candidates" (per_query "kb.candidates");
  Report.metric report "kb.subsets" (per_query "kb.subsets");
  Report.metric report "bignum.alloc_words_per_query" (float_of_int (List.assoc "bignum.alloc_words" counts));
  let half = float_of_int seconds /. 2.0 in
  let plain, _, next, _, _ = loop report env refs ~seconds:half ~first:0 ~seed in
  let (traced, wall, _, _, steps), lines =
    Probe.traced (fun () -> loop ~warm:false report env refs ~seconds:half ~first:next ~seed)
  in
  let n = float_of_int (List.length traced) in
  let lat xs = List.map (fun (_, s) -> s *. 1e3) xs in
  Report.metric report "obs.trace_overhead" (Stats.ratio (Stats.median (lat traced)) (Stats.median (lat plain)));
  List.iter (fun s -> Report.metric report ("kb.query_ms." ^ s) (Stats.median (ms_of s traced))) shapes;
  Report.metric report "kb.steps_per_query" (float_of_int steps /. n);
  Report.metric report "kb.us_per_step" (Stats.ratio (Stats.sum (List.map snd traced) *. 1e6) (float_of_int steps));
  let builds = Probe.counter "kb.index.builds" in
  Report.metric report "kb.index_builds" (float_of_int builds);
  Report.check report (builds = 0) "%d index builds after set-up" builds;
  Report.metric report "par.tasks" (float_of_int (Probe.counter "pool.tasks") /. n);
  Report.metric report "par.helped" (float_of_int (Probe.counter "pool.helped") /. n);
  Report.metric report "par.queue_peak" (Probe.gauge "pool.queue_peak");
  Report.metric report "par.task_us_p50" (Probe.histogram_p50 "pool.task_us");
  let time pool = snd (Probe.timed (fun () -> ignore (query ?pool env.store project))) in
  Report.metric report "par.jobs1_over_jobsN"
    (Stats.median (List.init 3 (fun _ -> Stats.ratio (time None) (time (Some env.pool)))));
  store_probes report env;
  bignum_fold report env refs;
  Report.samples report "latency_ms.untraced" (lat plain);
  Report.samples report "latency_ms.traced" (lat traced);
  Report.metric report "peak_rss_mb" (Probe.peak_rss_mb ());
  teardown env;
  Spans.closed_loop lines ~wall
