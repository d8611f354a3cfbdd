(* Reading the program from outside: wall clock, counters and histograms
   of Ipdb_obs.Metrics, the in-memory trace sink, allocation and peak
   RSS. *)

module Metrics = Ipdb_obs.Metrics
module Trace = Ipdb_obs.Trace
module Sink = Ipdb_obs.Sink
module Json = Ipdb_obs.Json

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* A benchmark-side span around one call into a layer:
   [bench.<layer>.<call>]. Free when no sink is installed. *)
let span layer call f = Trace.with_span ("bench." ^ layer ^ "." ^ call) f

let counter name = Metrics.value (Metrics.counter name)
let gauge name = Metrics.gauge_value (Metrics.gauge name)

(* Median of a log2-bucketed histogram, interpolating linearly inside
   the bucket that holds it (bucket 0 is [0, 1), bucket i is
   [2^(i-1), 2^i)). *)
let histogram_p50 name =
  let buckets =
    match Json.member "histograms" (Metrics.snapshot ()) with
    | Some h -> (
        match Option.bind (Json.member name h) (Json.member "buckets") with
        | Some (Json.List bs) -> List.map (fun b -> Option.value (Json.to_float b) ~default:0.0) bs
        | _ -> [])
    | None -> []
  in
  let total = Stats.sum buckets in
  if total = 0.0 then 0.0
  else
    let half = total /. 2.0 in
    let rec go i acc = function
      | [] -> 0.0
      | c :: rest ->
          if acc +. c >= half then
            let lo = if i = 0 then 0.0 else Float.pow 2.0 (float_of_int (i - 1)) in
            let hi = Float.pow 2.0 (float_of_int i) in
            lo +. ((hi -. lo) *. Stats.ratio (half -. acc) c)
          else go (i + 1) (acc +. c) rest
    in
    go 0 0.0 buckets

(* Run [f] with metrics recording on and every span kept in memory;
   returns [f]'s result and the trace lines. *)
let traced f =
  let sink, lines = Sink.memory () in
  Metrics.reset ();
  Metrics.enable ();
  Sink.install sink;
  let v = Fun.protect ~finally:(fun () -> Sink.uninstall (); Metrics.disable ()) f in
  (v, lines ())

(* Run [f] with metrics recording on and no trace sink: for the
   deterministic counts, which must not depend on trace output. *)
let counting f =
  Metrics.enable ();
  Fun.protect ~finally:Metrics.disable f

(* Words allocated by the calling domain while [f] runs. *)
let alloc_words f =
  let w0 = Gc.minor_words () in
  let v = f () in
  (v, Gc.minor_words () -. w0)

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb ?(pid = "self") () =
  match open_in ("/proc/" ^ pid ^ "/status") with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

(* A fresh directory under [root], removed by [cleanup]. *)
let fresh_dir root name =
  let rec pick i =
    let d = Filename.concat root (Printf.sprintf "%s.%d.%d" name (Unix.getpid ()) i) in
    if Sys.file_exists d then pick (i + 1)
    else begin
      Sys.mkdir d 0o755;
      d
    end
  in
  pick 0

let rec remove_tree path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

(* Host CPU time in jiffies from /proc/stat: (total, iowait, steal). *)
let host_cpu () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields ->
          let v = List.map (fun f -> Option.value (float_of_string_opt f) ~default:0.0) fields in
          let nth i = Option.value (List.nth_opt v i) ~default:0.0 in
          (List.fold_left ( +. ) 0.0 v, nth 4, nth 7)
      | _ -> (0.0, 0.0, 0.0))
  | None | (exception Sys_error _) -> (0.0, 0.0, 0.0)

(* The share of host CPU time the hypervisor took between two host_cpu
   readings. *)
let steal_share (total0, _, steal0) (total, _, steal) = Stats.ratio (steal -. steal0) (total -. total0)

(* [f]'s result, its seconds, and the steal share while it ran. *)
let timed_steal f =
  let c0 = host_cpu () in
  let v, dt = timed f in
  (v, dt, steal_share c0 (host_cpu ()))

(* Milliseconds a fixed integer loop takes, median of 5: the same work on
   every run, so it shows when the host itself ran faster or slower (a
   busy neighbour on the same cores, a frequency change) without the
   hypervisor taking the vCPUs, which steal time does not show. *)
let calibration_ms () =
  let loop () =
    let x = ref 0 in
    for i = 1 to 2_000_000 do
      x := ((!x * 1103515245) + i) land 0xffff_ffff
    done;
    ignore (Sys.opaque_identity !x)
  in
  Stats.median (List.init 5 (fun _ -> snd (timed loop) *. 1e3))
