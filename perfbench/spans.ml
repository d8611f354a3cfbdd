(* The traced run's fold: JSONL trace events -> spans -> self time per
   layer, coverage, and the share of series time outside chunk spans.

   A span's self time is its duration minus the part its children cover.
   Children always run on their parent's domain (the trace keeps one
   span stack per domain), one after another, so that part is the sum of
   their durations. *)

module Json = Ipdb_obs.Json

(* Layers (lib/<layer>) whose self time the traced run reports: those
   with spans of their own or public calls the workloads make. Bignum
   and par work shows inside their callers' self time. *)
let layers = [ "series"; "core"; "kb"; "run"; "serve" ]

type span = { id : int; parent : int option; dom : int; name : string; t0 : float; t1 : float }

let dur s = s.t1 -. s.t0

(* A workload's traced phase: its trace files (name suffix, lines), self
   seconds per layer, the seconds named layer spans account for, and the
   time they should account for (the loop's wall time; summed request
   latency for an open loop). *)
type phase = { files : (string * string list) list; self : (string * float) list; covered : float; denom : float }

let parse lines =
  let open_spans = Hashtbl.create 1024 in
  let out = ref [] in
  List.iter
    (fun line ->
      match Json.parse line with
      | Error _ -> ()
      | Ok ev -> (
          let str k = match Json.member k ev with Some (Json.String s) -> Some s | _ -> None in
          let int k = match Json.member k ev with Some (Json.Int i) -> Some i | _ -> None in
          let ts = Option.bind (Json.member "ts" ev) Json.to_float in
          match (str "ev", int "id", ts) with
          | Some "span_begin", Some id, Some t0 ->
              let name = Option.value (str "name") ~default:"" in
              let dom = Option.value (int "dom") ~default:0 in
              Hashtbl.replace open_spans id (int "parent", dom, name, t0)
          | Some "span_end", Some id, Some t1 -> (
              match Hashtbl.find_opt open_spans id with
              | Some (parent, dom, name, t0) ->
                  Hashtbl.remove open_spans id;
                  out := { id; parent; dom; name; t0; t1 } :: !out
              | None -> ())
          | _ -> ()))
    lines;
  List.rev !out

(* The repo layer a span belongs to: benchmark-side spans are named
   [bench.<layer>.<call>]; the program's own spans by their prefix. *)
let layer_of name =
  match String.split_on_char '.' name with
  | "bench" :: layer :: _ -> layer
  | "series" :: _ -> "series"
  | ("criteria" | "classify" | "figure") :: _ -> "core"
  | "kb" :: _ -> "kb"
  | "serve" :: _ -> "serve"
  | ("journal" | "checkpoint" | "budget" | "supervisor") :: _ -> "run"
  | _ -> "other"

let self_times spans =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
          Hashtbl.replace covered p (dur s +. Option.value (Hashtbl.find_opt covered p) ~default:0.0)
      | None -> ())
    spans;
  List.map (fun s -> (s, dur s -. Option.value (Hashtbl.find_opt covered s.id) ~default:0.0)) spans

(* Self seconds per layer, summed over every domain. *)
let self_by_layer spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let l = layer_of s.name in
      Hashtbl.replace tbl l (self +. Option.value (Hashtbl.find_opt tbl l) ~default:0.0))
    (self_times spans);
  fun layer -> Option.value (Hashtbl.find_opt tbl layer) ~default:0.0

(* Seconds of root spans on domain [dom]: the part of that domain's
   timeline some named layer span accounts for. *)
let root_seconds ~dom spans =
  List.fold_left
    (fun acc s -> if s.dom = dom && s.parent = None then acc +. dur s else acc)
    0.0 spans

let named name spans = List.filter (fun s -> s.name = name) spans

(* A union of intervals as a sorted list of disjoint ones. *)
let merge intervals =
  let sorted = List.sort compare intervals in
  let rec go acc = function
    | [] -> List.rev acc
    | (a, b) :: rest -> (
        match acc with
        | (a', b') :: acc' when a <= b' -> go ((a', Float.max b b') :: acc') rest
        | _ -> go ((a, b) :: acc) rest)
  in
  go [] sorted

(* Share of the engine spans' time during which no [series.chunk] span
   ran on any domain: pool hand-off, ordered reduction, snapshot
   callbacks. *)
let outside_chunk_share spans =
  let engines =
    List.filter (fun s -> s.name = "series.sum" || s.name = "series.divergence") spans
  in
  let chunks = merge (List.map (fun s -> (s.t0, s.t1)) (named "series.chunk" spans)) in
  let covered (e : span) =
    List.fold_left
      (fun acc (a, b) ->
        let lo = Float.max a e.t0 and hi = Float.min b e.t1 in
        if hi > lo then acc +. (hi -. lo) else acc)
      0.0 chunks
  in
  let total = List.fold_left (fun acc e -> acc +. dur e) 0.0 engines in
  let outside = List.fold_left (fun acc e -> acc +. (dur e -. covered e)) 0.0 engines in
  Stats.ratio outside total

(* The phase of a closed loop driven from the calling domain: coverage
   is the share of the loop's wall time inside root spans there. *)
let closed_loop ?spans lines ~wall =
  let spans = match spans with Some s -> s | None -> parse lines in
  let self = self_by_layer spans in
  {
    files = [ ("", lines) ];
    self = List.map (fun l -> (l, self l)) layers;
    covered = root_seconds ~dom:(Domain.self () :> int) spans;
    denom = wall;
  }
