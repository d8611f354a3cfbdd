(* Workload serve-mixed: an open loop against a real `ipdb serve` daemon
   started with --journal and --cache in a fresh directory (fsync on, as
   shipped) and --kb over a 1e4-fact knowledge base.

   Requests follow a seeded schedule at a fixed offered rate, on at most
   nproc connections at a time (one request per connection, as the
   protocol has it). Each is timed from the moment it was due, so a
   stall also charges the requests queued behind it, and the generator's
   lateness is reported. Per block of 100 requests: 82 repeats of a hot
   set of 64 keys with Zipf popularity (cache hits: framing, cache probe,
   reply), 2 each of version and health, and 14 keys never sent before
   (misses: journal fsync, compute, cache put): 2 kb, 5 criterion, 4
   moments, 2 classify and 1 pqe. Sorted by cost, p50 falls among the
   hits, p90 among the criterion, moments and classify misses, which
   each repeat one plan at nearly one size and cost about the same, and
   p99 on the kb misses (see miss_ops). Each percentile so lands on
   requests whose cost is compute of several milliseconds, not the two
   fsyncs every miss also pays, and a host whose disk is slow for a while
   moves them little. This is the only workload that exercises serve,
   the verdict cache and the journal write path. *)

module Protocol = Ipdb_serve.Protocol
module Server = Ipdb_serve.Server
module Json = Ipdb_obs.Json
module Q = Ipdb_bignum.Q
module Fo = Ipdb_logic.Fo
module Zoo = Ipdb_core.Zoo
module Criteria = Ipdb_core.Criteria
module Classifier = Ipdb_core.Classifier
module Interval = Ipdb_series.Interval
module Lineage = Ipdb_pdb.Lineage
module Store = Ipdb_kb.Store
module Kbfile = Ipdb_kb.Kbfile
module Lifted = Ipdb_kb.Lifted
module Run_error = Ipdb_run.Error

let now = Unix.gettimeofday
let rate = 100.0
let slo_ms = 50.0
let kb_facts = 10_000
let kb_universe = 256
let hot_keys = 64

(* The daemon counts a connection until it has seen the client's close,
   so a request sent right after another one's reply can be admitted
   while all workers look busy, on the degraded rung. Its step cap is
   raised above any request here, so such a request still completes. *)
let degraded_max_steps = 1_000_000

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; port : int; dir : string; out : Unix.file_descr; mutable stopped : bool }

let read_line_before fd deadline =
  let buf = Buffer.create 64 and byte = Bytes.create 1 in
  let rec go () =
    let left = deadline -. now () in
    if left <= 0.0 then None
    else
      match Unix.select [ fd ] [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | [], _, _ -> None
      | _ -> (
          match Unix.read fd byte 0 1 with
          | 0 -> None
          | _ when Bytes.get byte 0 = '\n' -> Some (Buffer.contents buf)
          | _ ->
              Buffer.add_bytes buf byte;
              go ())
  in
  go ()

(* One request on its own connection. Returns the response and the
   seconds spent in connect and close. *)
let send ~port payload =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  let t0 = now () in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Error ("connect: " ^ Unix.error_message e)
  | () ->
      let t1 = now () in
      let frame =
        try
          Protocol.write_frame fd payload;
          Protocol.read_frame ~deadline:(now () +. 60.0) fd
        with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      in
      let t2 = now () in
      Unix.close fd;
      let overhead = t1 -. t0 +. (now () -. t2) in
      Result.map (fun r -> (r, overhead)) (Result.bind frame Protocol.parse_response)

(* SIGTERM (the daemon drains and checkpoints), SIGKILL after 20s; waits
   for the process either way. Idempotent. *)
let stop daemon =
  if not daemon.stopped then begin
  daemon.stopped <- true;
  (try Unix.kill daemon.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] daemon.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill daemon.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] daemon.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  Unix.close daemon.out
  end

let trace_file d = Filename.concat d.dir "trace.jsonl"

(* Start a daemon in a fresh directory, with tracing and metrics off
   (`Off), metrics on (`Metrics, printed to its stderr on exit) or both
   (`Trace, spans to trace.jsonl there); returns it, and the seconds from
   spawn to its first answer with the steal share meanwhile. *)
let start ~ipdb ~tmp ~kb ~obs =
  let cpu0 = Probe.host_cpu () in
  let dir = Probe.fresh_dir tmp "serve" in
  let path f = Filename.concat dir f in
  let args =
    [ ipdb; "serve"; "--port"; "0"; "--jobs"; string_of_int (Report.nproc ()); "--journal"; path "journal";
      "--cache"; path "cache"; "--kb"; kb; "--degraded-max-steps"; string_of_int degraded_max_steps ]
    @ match obs with
      | `Off -> []
      | `Metrics -> [ "--metrics" ]
      | `Trace -> [ "--trace"; path "trace.jsonl"; "--metrics" ]
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile (path "stderr") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let t0 = now () in
  let pid = Unix.create_process ipdb (Array.of_list args) null out_w err in
  List.iter Unix.close [ out_w; err; null ];
  let fail msg =
    let d = { pid; port = 0; dir; out = out_r; stopped = false } in
    stop d;
    failwith ("ipdb serve: " ^ msg)
  in
  match read_line_before out_r (t0 +. 60.0) with
  | None -> fail "no listening line"
  | Some line -> (
      match Scanf.sscanf_opt line "ipdb serve: listening on 127.0.0.1:%d" Fun.id with
      | None -> fail ("unexpected first line: " ^ line)
      | Some port ->
          let d = { pid; port; dir; out = out_r; stopped = false } in
          let rec first () =
            match send ~port "version" with
            | Ok ({ Protocol.status = Protocol.Ok_positive; _ }, _) -> now () -. t0
            | _ when now () -. t0 < 60.0 ->
                Unix.sleepf 0.001;
                first ()
            | _ -> fail "no answer within 60s"
          in
          let dt = first () in
          (d, (dt, Probe.steal_share cpu0 (Probe.host_cpu ()))))

(* Counters the daemon prints to stderr on exit under --metrics. *)
let exit_metrics daemon =
  let ic = open_in (Filename.concat daemon.dir "stderr") in
  let tbl = Hashtbl.create 32 in
  (try
     while true do
       let line = input_line ic in
       match String.split_on_char ' ' line with
       | [ "metric"; name; v ] -> Option.iter (Hashtbl.replace tbl name) (float_of_string_opt v)
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  fun name -> Option.value (Hashtbl.find_opt tbl name) ~default:0.0

let stats ~port =
  match send ~port "stats" with
  | Ok ({ Protocol.status = Protocol.Ok_positive; body }, _) -> (
      match Json.parse body with
      | Ok j -> fun k -> Option.value (Option.bind (Json.member k j) Json.to_float) ~default:0.0
      | Error _ -> fun _ -> nan)
  | _ -> fun _ -> nan

(* ------------------------------------------------------------------ *)
(* The schedule                                                        *)
(* ------------------------------------------------------------------ *)

type kind = Hit of int | Miss of string | Version | Health
type req = { kind : kind; payload : string }

let op_name = function Hit _ -> "hit" | Miss op -> op | Version -> "version" | Health -> "health"
let families_with f = List.filter_map (fun (n, cf) -> if f cf then Some n else None) Zoo.all_families

(* 64 distinct certified keys over every op. *)
let hot_set ~seed =
  let rng = Random.State.make [| 0x5e; seed |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let upto () = pick [ 500; 1000; 1500; 2000 ] in
  let candidate i =
    match i mod 5 with
    | 0 -> Printf.sprintf "classify %s upto=%d" (pick (List.map fst Zoo.all_families)) (upto ())
    | 1 ->
        let k = 1 + Random.State.int rng 4 in
        Printf.sprintf "moments %s k=%d upto=%d"
          (pick (families_with (fun cf -> cf.Zoo.moment_cert k <> None))) k (upto ())
    | 2 ->
        let c = 1 + Random.State.int rng 4 in
        Printf.sprintf "criterion %s c=%d upto=%d"
          (pick (families_with (fun cf -> cf.Zoo.thm53_cert c <> None))) c (upto ())
    | 3 ->
        pick
          [ Printf.sprintf "pqe example-5.6 R(%d) | exists x. R(x)" (Random.State.int rng 40);
            Printf.sprintf "pqe example-b3 exists x. R(x, '%s')" (pick [ "a"; "b" ]);
            Printf.sprintf "pqe car-accidents exists n. Accidents('%s', n)" (pick [ "DE"; "FR"; "IL"; "US" ]) ]
    | _ -> Printf.sprintf "kb exists y. R(%d, y)" (Random.State.int rng kb_universe)
  in
  let rec fill acc i =
    if List.length acc = hot_keys then Array.of_list (List.rev acc)
    else
      let p = candidate i in
      fill (if List.mem p acc then acc else p :: acc) (i + 1)
  in
  fill [] 0

(* The [j]th key of kind [op] never sent before in this daemon. Miss
   uptos start above every hot one, and past the hot keys' pqe and kb
   constants. A kb miss runs the product over every R fact, whatever its
   constant; the others repeat one family at one k or c, their upto
   growing by 1 per miss, about 1% over a run. All stay below the
   family's check_upto, past which the daemon would clamp them onto one
   cache key. *)
let miss op j =
  match op with
  | "kb" -> Printf.sprintf "kb T(%d) | exists x y. R(x, y)" (1000 + j)
  | "classify" -> Printf.sprintf "classify example-5.5 upto=%d" (5001 + j)
  | "moments" -> Printf.sprintf "moments example-3.9 k=2 upto=%d" (30001 + j)
  | "criterion" -> Printf.sprintf "criterion example-3.9 c=2 upto=%d" (40001 + j)
  | _ -> Printf.sprintf "pqe example-5.6 R(%d) | exists x. R(x)" (100 + j)

(* Per block, sorted by cost: 2 kb, 11 series misses of 5-7 ms, 1 pqe.
   p99 is the second dearest request, the cheaper kb miss, and p90 the
   eleventh, the third cheapest series miss: a host that stalls a request
   only ever adds to it, so a low order statistic of a kind moves least. *)
let miss_ops =
  [ "kb"; "kb"; "criterion"; "criterion"; "criterion"; "criterion"; "criterion"; "moments"; "moments"; "moments";
    "moments"; "classify"; "classify"; "pqe" ]
let miss_kinds = [ "classify"; "moments"; "criterion"; "pqe"; "kb" ]

(* Zipf(1) over the hot keys. *)
let zipf rng =
  let w = Array.init hot_keys (fun r -> 1.0 /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  fun () ->
    let x = Random.State.float rng total in
    let rec go i acc = if i = hot_keys - 1 || acc +. w.(i) > x then i else go (i + 1) (acc +. w.(i)) in
    go 0 0.0

(* The hot keys, and per miss kind the misses issued so far. *)
type gen = { hot : string array; sent : (string, int) Hashtbl.t }

let block_size = 100

let block gen ~seed b =
  let rng = Loop.block_rng ~seed b in
  let draw = zipf rng in
  let hits = List.init 82 (fun _ -> let i = draw () in { kind = Hit i; payload = gen.hot.(i) }) in
  let misses =
    List.map
      (fun op ->
        let j = Option.value (Hashtbl.find_opt gen.sent op) ~default:0 in
        Hashtbl.replace gen.sent op (j + 1);
        { kind = Miss op; payload = miss op j })
      miss_ops
  in
  let meta = [ { kind = Version; payload = "version" }; { kind = Version; payload = "version" };
               { kind = Health; payload = "health" }; { kind = Health; payload = "health" } ] in
  Loop.shuffle rng (Array.of_list (hits @ misses @ meta))

(* ------------------------------------------------------------------ *)
(* In-process references                                               *)
(* ------------------------------------------------------------------ *)

(* The answer the libraries give in this process to a request sent to
   the daemon: the same public calls on the same inputs (the kb loaded
   from the daemon's file), rendered as the daemon's verdict lines, which
   its golden wire contract pins. Error when the request has no verdict
   to compare (health) or the verdict is not a certified one that agrees
   with the paper. *)
let reference store payload =
  let ( let* ) = Result.bind in
  let family f = Option.to_result ~none:("unknown family " ^ f) (List.assoc_opt f Zoo.all_families) in
  let sentence q = Result.map_error (fun e -> "parse error: " ^ e) (Ipdb_logic.Parser.sentence q) in
  let prob phi p =
    Printf.sprintf "P(%s) = %s ≈ %s" (Fo.to_string phi) (Q.to_string p) (Q.to_decimal_string ~digits:8 p)
  in
  let series ~consistent ~finite ~infinite cf v =
    match v with
    | _ when not (consistent cf v) -> Error ("disagrees with the paper: " ^ Criteria.verdict_to_string v)
    | Criteria.Finite_sum e ->
        Ok { Protocol.status = Protocol.Ok_positive; body = finite (Interval.lo e) (Interval.hi e) }
    | Criteria.Infinite_sum { partial; at } ->
        Ok { Protocol.status = Protocol.Certified_negative; body = infinite partial at }
    | _ -> Error (Criteria.verdict_to_string v)
  in
  let* req, _ = Protocol.parse_request payload in
  match req with
  | Protocol.Version -> Ok { Protocol.status = Protocol.Ok_positive; body = Server.version_string () }
  | Protocol.Classify { family = f; upto } -> (
      let* cf = family f in
      let v = Classifier.classify ~upto cf in
      let body = Classifier.verdict_to_string v in
      match v with
      | _ when not (Classifier.agrees_with_paper cf v) -> Error ("disagrees with the paper: " ^ body)
      | Classifier.In_FOTI _ | Classifier.Undetermined _ -> Ok { Protocol.status = Protocol.Ok_positive; body }
      | Classifier.Not_in_FOTI _ -> Ok { Protocol.status = Protocol.Certified_negative; body }
      | Classifier.Partial _ -> Error body)
  | Protocol.Moments { family = f; k; upto } ->
      let* cf = family f in
      let* cert = Option.to_result ~none:(Printf.sprintf "no certificate for k=%d" k) (cf.Zoo.moment_cert k) in
      series ~consistent:Certify.moment_consistent cf
        (Criteria.moment_verdict cf.Zoo.family ~k ~cert ~upto:(min upto cf.Zoo.check_upto))
        ~finite:(Printf.sprintf "E(|D|^%d) ∈ [%.9g, %.9g]" k)
        ~infinite:(Printf.sprintf "E(|D|^%d) = ∞ (certified; partial sum %.6g after %d terms)" k)
  | Protocol.Criterion { family = f; c; upto } ->
      let* cf = family f in
      let* cert = Option.to_result ~none:(Printf.sprintf "no certificate for c=%d" c) (cf.Zoo.thm53_cert c) in
      series ~consistent:Certify.thm53_consistent cf
        (Criteria.theorem53_verdict cf.Zoo.family ~c ~cert ~upto:(min upto cf.Zoo.check_upto))
        ~finite:(Printf.sprintf "Σ|D|·P(D)^(%d/|D|) ∈ [%.9g, %.9g] < ∞ ⟹ in FO(TI) (Theorem 5.3)" c)
        ~infinite:(Printf.sprintf "Σ|D|·P(D)^(%d/|D|) = ∞ (partial %.6g after %d terms)" c)
  | Protocol.Pqe { ti; query } ->
      let* tipdb = Option.to_result ~none:("unknown TI-PDB " ^ ti) (List.assoc_opt ti (Server.builtin_tis ())) in
      let* phi = sentence query in
      let p = Lineage.probability tipdb (Lineage.of_sentence tipdb phi) in
      Ok { Protocol.status = Protocol.Ok_positive; body = prob phi p }
  | Protocol.Kb { query } -> (
      let* phi = sentence query in
      match Lifted.query store phi with
      | Ok (Lifted.Exact p) ->
          let status = if Q.is_zero p then Protocol.Certified_negative else Protocol.Ok_positive in
          Ok { Protocol.status; body = prob phi p }
      | Ok (Lifted.Estimated _) -> Error "safe query fell back to sampling"
      | Error e -> Error (Run_error.to_string e))
  | _ -> Error "no reference for this op"

(* What a run checks answers against: each hot key's first served bytes,
   and the kb the references are computed over. *)
type refs = { first : (string, string) Hashtbl.t; store : Store.t }

let load_store kb =
  match Kbfile.load kb with
  | Ok l -> l.Kbfile.store
  | Error e -> failwith ("kb load: " ^ Run_error.to_string e)

(* ------------------------------------------------------------------ *)
(* The open loop                                                       *)
(* ------------------------------------------------------------------ *)

type sample = {
  req : req;
  due : float;
  sent : float;
  done_ : float;
  overhead : float;  (* connect + close, seconds *)
  reply : (Protocol.response, string) result;
}

let latency_ms s = (s.done_ -. s.due) *. 1e3
let late_ms s = (s.sent -. s.due) *. 1e3

(* Sleep to within 0.15 ms of [t], then spin: a sleep alone overshoots by
   tens of microseconds, which would show up as latency. *)
let wait_until t =
  let early = t -. now () -. 1.5e-4 in
  if early > 0.0 then Unix.sleepf early;
  while now () < t do
    Domain.cpu_relax ()
  done

(* Issue [reqs], whole blocks, at [rate] per second from [nproc] senders.
   Returns the samples, the wall time and each block's steal share
   (Probe.steal_share), read when its first request is picked up. *)
let open_loop ~port ~rate reqs =
  let n = Array.length reqs in
  let out = Array.make n None in
  let cpu = Array.make ((n / block_size) + 1) (0.0, 0.0, 0.0) in
  let next = Atomic.make 0 in
  let t0 = now () +. 0.01 in
  let sender () =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        if i mod block_size = 0 then cpu.(i / block_size) <- Probe.host_cpu ();
        let due = t0 +. (float_of_int i /. rate) in
        wait_until due;
        let req = reqs.(i) in
        let sent = now () in
        let r = Probe.span "serve" (op_name req.kind) (fun () -> send ~port req.payload) in
        let done_ = now () in
        let reply, overhead = match r with Ok (resp, o) -> (Ok resp, o) | Error e -> (Error e, 0.0) in
        out.(i) <- Some { req; due; sent; done_; overhead; reply };
        go ()
      end
    in
    go ()
  in
  let others = List.init (Report.nproc () - 1) (fun _ -> Domain.spawn sender) in
  sender ();
  List.iter Domain.join others;
  cpu.(n / block_size) <- Probe.host_cpu ();
  let samples = Array.to_list (Array.map Option.get out) in
  (samples, now () -. t0, List.init (n / block_size) (fun b -> Probe.steal_share cpu.(b) cpu.(b + 1)))

let render (r : Protocol.response) = Protocol.render_response r

(* A served answer against its in-process reference; true when equal. *)
let matches_reference report refs payload served =
  match reference refs.store payload with
  | Error e ->
      Report.fail report "%s: reference: %s" payload e;
      false
  | Ok r when render r <> served ->
      Report.fail report "%s: served [%s], reference [%s]" payload served (render r);
      false
  | Ok _ -> true

(* Every hot key once, sequentially: an answer equal to its in-process
   reference goes into [refs.first], the bytes its repeats must match. *)
let warm report ~port gen refs =
  Array.iter
    (fun payload ->
      Report.attempt report;
      match send ~port payload with
      | Ok (r, _) ->
          if matches_reference report refs payload (render r) then Hashtbl.replace refs.first payload (render r)
      | Error e -> Report.fail report "%s: %s" payload e)
    gen.hot

(* A repeat (hot key, version) must be byte-identical to its key's first
   answer; a miss and the first version must equal the in-process
   reference. *)
let verify report refs s =
  Report.attempt report;
  let what = s.req.payload in
  match s.reply with
  | Error e -> Report.fail report "%s: transport: %s" what e
  | Ok r -> (
      match s.req.kind with
      | Health -> if r.Protocol.status <> Protocol.Ok_positive then Report.fail report "health: %s" (render r)
      | Hit _ | Version -> (
          match Hashtbl.find_opt refs.first what with
          | Some first -> if first <> render r then Report.fail report "%s: repeat differs from first answer" what
          | None -> if matches_reference report refs what (render r) then Hashtbl.replace refs.first what (render r))
      | Miss _ -> ignore (matches_reference report refs what (render r)))

let health_queue s =
  match (s.req.kind, s.reply) with
  | Health, Ok r -> (
      match Json.parse r.Protocol.body with
      | Ok j -> Option.bind (Json.member "queue_depth" j) Json.to_float
      | Error _ -> None)
  | _ -> None

(* The schedule for [seconds] at [rate]: whole blocks. *)
let schedule gen ~seed ~first ~rate ~seconds =
  let blocks = max 1 (int_of_float (Float.ceil (rate *. seconds /. 100.0))) in
  (Array.concat (List.init blocks (fun b -> block gen ~seed (first + b))), first + blocks)

let is_hit s = match s.req.kind with Hit _ -> true | _ -> false
let is_miss s = match s.req.kind with Miss _ -> true | _ -> false

(* One fixed-rate phase on a warm daemon, after an unmeasured second of
   the same load; checks the cache hit rate against the schedule's repeat
   share. With [trace], the measured part runs under Probe.traced and its
   client trace lines are returned. *)
type phase = {
  samples : sample list;
  wall : float;
  steal : float list;  (* per block *)
  next : int;  (* next block index *)
  delta : string -> float;  (* change of a stats counter over the phase *)
  served_before : int;  (* requests the daemon had answered when it began *)
  lines : string list;
}

let phase ?(trace = false) report refs ~port gen ~seed ~first ~rate ~seconds =
  let warm, first = schedule gen ~seed ~first ~rate ~seconds:1.0 in
  let warm, _, _ = open_loop ~port ~rate warm in
  List.iter (verify report refs) warm;
  let reqs, next = schedule gen ~seed ~first ~rate ~seconds in
  let before = stats ~port in
  let (samples, wall, steal), lines =
    if trace then Probe.traced (fun () -> open_loop ~port ~rate reqs) else (open_loop ~port ~rate reqs, [])
  in
  let after = stats ~port in
  List.iter (verify report refs) samples;
  let delta k = after k -. before k in
  let hits = List.length (List.filter is_hit samples) and misses = List.length (List.filter is_miss samples) in
  let expected = Stats.ratio (float_of_int hits) (float_of_int (hits + misses)) in
  let measured = Stats.ratio (delta "cache_hits") (delta "cache_hits" +. delta "cache_misses") in
  Report.check report (measured = expected) "cache hit rate %.4f, schedule repeat share %.4f" measured expected;
  (* the stats probe itself is answered before it counts itself *)
  { samples; wall; steal; next; delta; served_before = int_of_float (before "served") + 1; lines }

let write_kb ~dir ~seed =
  let path = Filename.concat dir "facts.kb" in
  Kbgen.write ~path ~seed ~facts:kb_facts ~universe:kb_universe;
  path

let lat_metrics report p =
  let samples = p.samples in
  let ok = List.length (List.filter (fun s -> Result.is_ok s.reply) samples) in
  Report.latencies report ~ops_per_s:(float_of_int ok /. p.wall) ~block:block_size ~steal:p.steal
    (List.map latency_ms samples);
  Report.samples report "gen_late_ms" (List.map late_ms samples);
  List.iter
    (fun op ->
      Report.samples report ("latency_ms." ^ op)
        (List.filter_map (fun s -> if op_name s.req.kind = op then Some (latency_ms s) else None) samples))
    ("hit" :: "version" :: "health" :: miss_kinds)

(* A warm daemon for the duration of [f]: started, the hot set answered
   once, stopped and removed afterwards whatever happens. [store] is the
   kb the daemon serves, loaded here for the references. *)
let with_daemon report ~ipdb ~tmp ~kb ~store ~seed ~obs f =
  let d, dt = start ~ipdb ~tmp ~kb ~obs in
  Fun.protect ~finally:(fun () -> stop d; Probe.remove_tree d.dir) @@ fun () ->
  let gen = { hot = hot_set ~seed; sent = Hashtbl.create 8 } in
  let refs = { first = Hashtbl.create 128; store } in
  warm report ~port:d.port gen refs;
  f d dt gen refs

let run_untraced report ~ipdb ~tmp ~seed ~seconds ~setups =
  let kb = write_kb ~dir:tmp ~seed in
  let runs = ref [] in
  for _ = 2 to setups do
    let d, run = start ~ipdb ~tmp ~kb ~obs:`Off in
    runs := run :: !runs;
    stop d;
    Probe.remove_tree d.dir
  done;
  let store = load_store kb in
  with_daemon report ~ipdb ~tmp ~kb ~store ~seed ~obs:`Off @@ fun d run gen refs ->
  Report.setups report (List.rev (run :: !runs));
  let p = phase report refs ~port:d.port gen ~seed ~first:0 ~rate ~seconds:(float_of_int seconds) in
  lat_metrics report p;
  Report.metric report "peak_rss_mb" (Probe.peak_rss_mb ~pid:(string_of_int d.pid) ())

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)
(* ------------------------------------------------------------------ *)

(* A fresh daemon with --metrics, the hot set and two blocks of misses
   sent one at a time: journal fsyncs and bytes per miss. *)
let count_pass report ~ipdb ~tmp ~kb ~store ~seed =
  let m, sent =
    with_daemon report ~ipdb ~tmp ~kb ~store ~seed ~obs:`Metrics @@ fun d _ gen _ ->
    let reqs, _ = schedule gen ~seed ~first:0 ~rate:100.0 ~seconds:2.0 in
    let misses = List.filter (fun r -> match r.kind with Miss _ -> true | _ -> false) (Array.to_list reqs) in
    List.iter (fun r -> ignore (send ~port:d.port r.payload)) misses;
    stop d;
    (exit_metrics d, hot_keys + List.length misses)
  in
  [ ("journal.fsyncs", int_of_float (m "journal.fsyncs")); ("journal.bytes", int_of_float (m "journal.bytes"));
    ("cache_misses", int_of_float (m "serve.cache_misses")); ("requests", sent) ]

(* Rates rising by 10% from the offered rate, one second each, up to 16x:
   the highest that keeps p99 within the SLO with no backlog growing
   across the step. One failed step may be noise on a shared host; the
   ladder stops after two in a row. *)
let ladder report refs ~port gen ~seed ~first =
  let rec go r first best failed =
    if r > 16.0 *. rate || failed = 2 then best
    else begin
      let reqs, next = schedule gen ~seed ~first ~rate:r ~seconds:1.0 in
      let samples, _, _ = open_loop ~port ~rate:r reqs in
      List.iter (verify report refs) samples;
      let n = List.length samples in
      let fifth part = List.filteri (fun i _ -> i * 5 / n = part) samples in
      let late part = Stats.median (List.map late_ms (fifth part)) in
      let p99 = Stats.quantile (List.map latency_ms samples) 0.99 in
      if p99 <= slo_ms && late 4 <= late 0 +. 10.0 then go (r *. 1.1) next r 0
      else go (r *. 1.1) next best (failed + 1)
    end
  in
  go rate first 0.0 0

let ms_of pred samples = List.filter_map (fun s -> if pred s then Some (latency_ms s) else None) samples

(* The daemon's spans during the phase: its requests are the ones after
   the [before] it had served when the phase began (the stats probe
   included), and the phase's [n]; everything else it traced inside that
   window belongs to them. *)
let daemon_phase_spans d ~before ~n =
  let lines = In_channel.with_open_text (trace_file d) In_channel.input_lines in
  let spans = Spans.parse lines in
  let reqs = List.sort (fun a b -> compare a.Spans.t0 b.Spans.t0) (Spans.named "serve.request" spans) in
  let phase = List.filteri (fun i _ -> i >= before && i < before + n) reqs in
  match phase with
  | [] -> (lines, [])
  | first :: _ ->
      let lo = first.Spans.t0 and hi = List.fold_left (fun a s -> Float.max a s.Spans.t1) 0.0 phase in
      (lines, List.filter (fun s -> s.Spans.t0 >= lo && s.Spans.t1 <= hi) spans)

let run_traced report ~ipdb ~tmp ~seed ~seconds =
  let kb = write_kb ~dir:tmp ~seed in
  let store = load_store kb in
  let counts = count_pass report ~ipdb ~tmp ~kb ~store ~seed in
  let again = count_pass report ~ipdb ~tmp ~kb ~store ~seed in
  Report.check report (counts = again) "deterministic counts differ between two same-seed passes";
  List.iter (fun (k, c) -> Report.count report ("serve." ^ k) c) counts;
  let count k = float_of_int (List.assoc k counts) in
  Report.metric report "serve.journal_fsyncs_per_miss" (count "journal.fsyncs" /. count "cache_misses");
  Report.metric report "serve.journal_bytes_per_miss" (count "journal.bytes" /. count "cache_misses");
  Report.metric report "run.journal_fsyncs" (count "journal.fsyncs" /. count "requests");
  let half = float_of_int seconds /. 2.0 in
  (* Untraced daemon: the baseline for the trace overhead, then the ladder. *)
  let plain =
    with_daemon report ~ipdb ~tmp ~kb ~store ~seed ~obs:`Off @@ fun d _ gen refs ->
    let p = phase report refs ~port:d.port gen ~seed ~first:0 ~rate ~seconds:half in
    Report.metric report "max_rps_under_slo" (ladder report refs ~port:d.port gen ~seed ~first:p.next);
    p.samples
  in
  (* Traced daemon: --trace and --metrics there, spans in memory here. *)
  with_daemon report ~ipdb ~tmp ~kb ~store ~seed ~obs:`Trace @@ fun d _ gen refs ->
  let p = phase ~trace:true report refs ~port:d.port gen ~seed ~first:0 ~rate ~seconds:half in
  let traced = p.samples and delta = p.delta and client_lines = p.lines in
  stop d;
  let daemon_lines, daemon_spans = daemon_phase_spans d ~before:p.served_before ~n:(List.length traced) in
  let med xs = Stats.median xs in
  let lat = List.map latency_ms in
  Report.metric report "obs.trace_overhead" (Stats.ratio (med (lat traced)) (med (lat plain)));
  let hits = ms_of is_hit traced and misses = ms_of is_miss traced in
  Report.metric report "serve.hit_ms_p50" (med hits);
  Report.metric report "serve.hit_ms_p99" (Stats.quantile hits 0.99);
  Report.metric report "serve.miss_ms_p50" (med misses);
  Report.metric report "serve.miss_ms_p99" (Stats.quantile misses 0.99);
  List.iter
    (fun op -> Report.metric report ("serve.op_ms." ^ op) (med (ms_of (fun s -> s.req.kind = Miss op) traced)))
    miss_kinds;
  Report.metric report "serve.connect_us" (med (List.map (fun s -> s.overhead *. 1e6) traced));
  Report.metric report "serve.gen_late_ms_p99" (Stats.quantile (List.map late_ms traced) 0.99);
  Report.metric report "serve.cache_hit_rate"
    (Stats.ratio (delta "cache_hits") (delta "cache_hits" +. delta "cache_misses"));
  Report.metric report "serve.shed" (delta "shed");
  Report.metric report "serve.degraded" (delta "degraded");
  Report.metric report "serve.queue_peak"
    (List.fold_left Float.max 0.0 (List.filter_map health_queue traced));
  let requests = Spans.named "serve.request" daemon_spans in
  let self = Spans.self_times daemon_spans in
  let request_self = List.filter_map (fun (s, t) -> if s.Spans.name = "serve.request" then Some t else None) self in
  Report.metric report "serve.request_self_ms" (Stats.mean request_self *. 1e3);
  Report.samples report "latency_ms.untraced" (lat plain);
  Report.samples report "latency_ms.traced" (lat traced);
  (* Time in system: from due to reply. The client spans cover send to
     reply; inside them the daemon's spans split off compute by layer,
     the rest of a round trip (connect, accept queue, framing) is serve.
     Before the send, a due request may wait for one of the nproc
     connections: that is the queue in front of the daemon, which with
     more connections would sit in its accept and pool queues, so it is
     serve too. *)
  let client = Spans.parse client_lines in
  let sent = Stats.sum (List.map Spans.dur client) in
  let waited = Stats.sum (List.map (fun s -> s.sent -. s.due) traced) in
  let daemon = Spans.self_by_layer daemon_spans in
  let in_daemon = Stats.sum (List.map Spans.dur requests) in
  let self l = if l = "serve" then daemon l +. Float.max 0.0 (sent -. in_daemon) +. waited else daemon l in
  { Spans.files = [ ("", client_lines); (".daemon", daemon_lines) ];
    self = List.map (fun l -> (l, self l)) Spans.layers;
    covered = sent +. waited;
    denom = Stats.sum (List.map (fun s -> s.done_ -. s.due) traced) }
