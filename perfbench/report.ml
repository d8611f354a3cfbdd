(* What one run reports, and the one result schema every run writes.

   The last line of standard output is the summary the contract asks
   for: {"correct", "attempted", "failed", "metrics"}. The full record —
   host, seed, raw samples behind every median, deterministic counts,
   the first failure messages — goes to a JSON file under the work
   directory, in the schema named by [schema]. *)

module Json = Ipdb_obs.Json

let schema = "ipdb-perfbench/1"

type host = { rev : string; fs : string; flush : string }

(* The metrics BENCHMARK.json names, (name, unit) in its order: the
   end-to-end list and the per-layer list. *)
type spec = { end_to_end : (string * string) list; per_layer : (string * string) list }

let load_spec path =
  let metrics j key =
    match Json.member key j with
    | Some (Json.List ms) ->
        List.map
          (fun m ->
            match (Json.member "name" m, Json.member "unit" m) with
            | Some (Json.String n), Some (Json.String u) -> (n, u)
            | _ -> failwith (path ^ ": a metric of " ^ key ^ " lacks a name or unit"))
          ms
    | _ -> failwith (path ^ ": no " ^ key ^ " list")
  in
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok j -> { end_to_end = metrics j "end_to_end"; per_layer = metrics j "per_layer" }

type t = {
  workload : string;
  seed : int;
  seconds : int;
  traced : bool;
  host : host;
  spec : spec;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (* newest first, capped *)
  mutable metrics : (string * float) list;  (* newest first *)
  mutable samples : (string * float list) list;
  mutable counts : (string * int) list;
}

let create ~workload ~seed ~seconds ~traced ~host ~spec =
  {
    workload;
    seed;
    seconds;
    traced;
    host;
    spec;
    attempted = 0;
    failed = 0;
    failures = [];
    metrics = [];
    samples = [];
    counts = [];
  }

let attempt r = r.attempted <- r.attempted + 1

(* Record a failed operation (wrong or aborted verdict, error status,
   mismatch against a reference, transport error). *)
let fail r fmt =
  Printf.ksprintf
    (fun m ->
      r.failed <- r.failed + 1;
      if List.length r.failures < 20 then r.failures <- m :: r.failures)
    fmt

(* One attempted operation whose outcome is [ok]. *)
let check r ok fmt =
  attempt r;
  Printf.ksprintf (fun m -> if not ok then fail r "%s" m) fmt

let metric r name v =
  let v = if Float.is_finite v then v else 0.0 in
  r.metrics <- (name, v) :: List.remove_assoc name r.metrics

let samples r name xs = r.samples <- (name, xs) :: List.remove_assoc name r.samples

(* The end-to-end figures of a measured loop: its throughput, and the
   latency percentiles (ms) of [lat], in issue order with [block] samples
   per block, each the median over the calm blocks (Stats.calm_quantile)
   given each block's [steal] share. *)
let latencies r ~ops_per_s ~block ~steal lat =
  metric r "ops_per_s" ops_per_s;
  metric r "latency_p50_ms" (Stats.calm_quantile ~block ~steal lat 0.5);
  metric r "latency_p90_ms" (Stats.calm_quantile ~block ~steal lat 0.9);
  metric r "latency_p99_ms" (Stats.calm_quantile ~block ~steal lat 0.99);
  samples r "latency_ms" lat;
  samples r "steal_by_block" steal

(* [setup_s]: the median over the calm ones of [runs], (seconds, steal
   share) per set-up. *)
let setups r runs =
  let times = List.map fst runs and steal = List.map snd runs in
  metric r "setup_s" (Stats.median (Stats.calm ~steal times));
  samples r "setup_s" times;
  samples r "setup_steal" steal

let count r name n = r.counts <- (name, n) :: List.remove_assoc name r.counts

let ocaml_version = Sys.ocaml_version
let nproc () = Domain.recommended_domain_count ()

(* A metric's unit as BENCHMARK.json gives it; the ones it does not name
   (the host shares of the record) are ratios. *)
let unit r name =
  Option.value (List.assoc_opt name (r.spec.end_to_end @ r.spec.per_layer)) ~default:"ratio"

let metrics_json r names =
  Json.Obj
    (List.map
       (fun n ->
         let v = Option.value (List.assoc_opt n r.metrics) ~default:0.0 in
         (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String (unit r n)) ]))
       names)

let record_json r =
  let floats xs = Json.List (List.map (fun x -> Json.Float x) xs) in
  Json.Obj
    [
      ("schema", Json.String schema);
      ("workload", Json.String r.workload);
      ("seed", Json.Int r.seed);
      ("seconds", Json.Int r.seconds);
      ("trace", Json.Bool r.traced);
      ( "host",
        Json.Obj
          [
            ("nproc", Json.Int (nproc ()));
            ("ocaml", Json.String ocaml_version);
            ("git_rev", Json.String r.host.rev);
            ("tmp_fs", Json.String r.host.fs);
            ("flush", Json.String r.host.flush);
          ] );
      ("correct", Json.Bool (r.failed = 0));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("failures", Json.List (List.rev_map (fun m -> Json.String m) r.failures));
      ("metrics", metrics_json r (List.rev_map fst r.metrics));
      ("counts", Json.Obj (List.rev_map (fun (n, c) -> (n, Json.Int c)) r.counts));
      ("samples", Json.Obj (List.rev_map (fun (n, xs) -> (n, floats xs)) r.samples));
    ]

(* The summary carries exactly BENCHMARK.json's end-to-end metrics (per-
   layer for the traced run); a metric the workload does not exercise
   reads 0. *)
let summary_json r =
  let names = List.map fst (if r.traced then r.spec.per_layer else r.spec.end_to_end) in
  Json.Obj
    [
      ("correct", Json.Bool (r.failed = 0));
      ("attempted", Json.Int (max 1 r.attempted));
      ("failed", Json.Int r.failed);
      ("metrics", metrics_json r names);
    ]

(* Write the full record to [path], then print the failures (stderr)
   and the summary line (stdout, last). *)
let finish r ~path =
  let oc = open_out path in
  output_string oc (Json.to_string (record_json r));
  output_char oc '\n';
  close_out oc;
  List.iter (fun m -> prerr_endline ("perfbench: FAILED " ^ m)) (List.rev r.failures);
  print_endline (Json.to_string (summary_json r))
