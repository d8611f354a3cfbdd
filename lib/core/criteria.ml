module Q = Ipdb_bignum.Q
module Value = Ipdb_relational.Value
module Schema = Ipdb_relational.Schema
module Instance = Ipdb_relational.Instance
module Series = Ipdb_series.Series
module Interval = Ipdb_series.Interval
module Family = Ipdb_pdb.Family
module Ti = Ipdb_pdb.Ti
module Finite_pdb = Ipdb_pdb.Finite_pdb
module View = Ipdb_logic.View
module Hypergraph = Ipdb_hypergraph.Hypergraph

type certificate =
  | Tail of Series.Tail.t
  | Divergence of Series.Divergence.t

type series_verdict =
  | Finite_sum of Interval.t
  | Infinite_sum of { partial : float; at : int }
  | Partial of {
      enclosure : Interval.t option;
      partial : float;
      at : int;
      requested : int;
      exhausted : Ipdb_run.Error.exhaustion;
    }
  | Invalid_certificate of string
  | Check_failed of Ipdb_run.Error.t

module Trace = Ipdb_obs.Trace
module OJson = Ipdb_obs.Json

let verdict_label = function
  | Finite_sum _ -> "finite"
  | Infinite_sum _ -> "infinite"
  | Partial _ -> "partial"
  | Invalid_certificate _ -> "invalid-certificate"
  | Check_failed _ -> "check-failed"

let cert_label = function Tail _ -> "tail" | Divergence _ -> "divergence"

(* Criterion-level span: one per certified series check, annotated with
   the verdict it produced. The engines underneath record their own
   spans, step counts and error events (DESIGN.md §9). *)
let traced_check cert ~verdict_of run =
  if not (Trace.enabled ()) then run ()
  else
    Trace.with_span "criteria.check" ~attrs:[ ("kind", OJson.String (cert_label cert)) ]
      (fun () ->
        let r = run () in
        Trace.annotate [ ("verdict", OJson.String (verdict_label (verdict_of r))) ];
        r)

let check_series_resumable ?pool ?budget ?from ?progress ?progress_every ~start ~cert ~upto term =
  traced_check cert ~verdict_of:fst @@ fun () ->
  match cert with
  | Tail tail -> (
    match Series.sum_resumable ?pool ?budget ?from ?progress ?progress_every ~start term ~tail ~upto with
    | Ok (Series.Complete enclosure, snap) -> (Finite_sum enclosure, Some snap)
    | Ok (Series.Exhausted p, snap) ->
      ( Partial
          {
            enclosure = p.Series.enclosure;
            partial = Interval.midpoint p.Series.prefix;
            at = p.Series.last;
            requested = p.Series.requested;
            exhausted = p.Series.exhausted;
          },
        Some snap )
    | Error (Ipdb_run.Error.Certificate { msg; _ }) -> (Invalid_certificate msg, None)
    | Error e -> (Check_failed e, None))
  | Divergence certificate -> (
    match
      Series.certify_divergence_resumable ?pool ?budget ?from ?progress ?progress_every ~start term
        ~certificate ~upto
    with
    | Ok (Series.Div_complete { partial; at }, snap) -> (Infinite_sum { partial; at }, Some snap)
    | Ok (Series.Div_exhausted { partial; last; requested; exhausted; _ }, snap) ->
      (Partial { enclosure = None; partial; at = last; requested; exhausted }, Some snap)
    | Error (Ipdb_run.Error.Certificate { msg; _ }) -> (Invalid_certificate msg, None)
    | Error e -> (Check_failed e, None))

let check_series ?pool ?budget ~start ~cert ~upto term =
  fst (check_series_resumable ?pool ?budget ~start ~cert ~upto term)

let moment_verdict ?pool ?budget fam ~k ~cert ~upto =
  check_series ?pool ?budget ~start:fam.Family.start ~cert ~upto (Family.moment_term fam ~k)

let theorem53_verdict ?pool ?budget fam ~c ~cert ~upto =
  check_series ?pool ?budget ~start:fam.Family.start ~cert ~upto (Family.theorem53_term fam ~c)

let moment_verdict_resumable ?pool ?budget ?from ?progress ?progress_every fam ~k ~cert ~upto =
  check_series_resumable ?pool ?budget ?from ?progress ?progress_every ~start:fam.Family.start ~cert
    ~upto (Family.moment_term fam ~k)

let theorem53_verdict_resumable ?pool ?budget ?from ?progress ?progress_every fam ~c ~cert ~upto =
  check_series_resumable ?pool ?budget ?from ?progress ?progress_every ~start:fam.Family.start ~cert
    ~upto (Family.theorem53_term fam ~c)

(* ------------------------------------------------------------------ *)
(* Verdict (de)serialization — evidence persisted in checkpoints        *)
(* ------------------------------------------------------------------ *)

(* Space-free token encoding for embedded strings, so a serialized verdict
   is a single line that splits cleanly on spaces. The empty string gets a
   dedicated spelling (["\e"]) that no nonempty escape can collide with. *)
let tok_escape s =
  if s = "" then "\\e"
  else begin
    let b = Buffer.create (String.length s + 4) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | ' ' -> Buffer.add_string b "\\s"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let tok_unescape s =
  if s = "\\e" then Ok ""
  else begin
    let n = String.length s in
    let b = Buffer.create n in
    let rec go i =
      if i >= n then Ok (Buffer.contents b)
      else
        match s.[i] with
        | '\\' ->
          if i + 1 >= n then Error "dangling escape in token"
          else (
            match s.[i + 1] with
            | '\\' -> Buffer.add_char b '\\'; go (i + 2)
            | 's' -> Buffer.add_char b ' '; go (i + 2)
            | 'n' -> Buffer.add_char b '\n'; go (i + 2)
            | 'r' -> Buffer.add_char b '\r'; go (i + 2)
            | c -> Error (Printf.sprintf "invalid token escape '\\%c'" c))
        | c -> Buffer.add_char b c; go (i + 1)
    in
    go 0
  end

let enc_f = Series.Snapshot.encode_float
let dec_f = Series.Snapshot.decode_float
let ( let* ) = Result.bind

let exhaustion_to_tokens = function
  | Ipdb_run.Error.Timeout { elapsed; limit } -> [ "timeout"; enc_f elapsed; enc_f limit ]
  | Ipdb_run.Error.Steps { used; limit } -> [ "steps"; string_of_int used; string_of_int limit ]
  | Ipdb_run.Error.Cancelled -> [ "cancelled" ]

let int_tok name s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "unparsable %s %S" name s)

let exhaustion_of_tokens = function
  | [ "timeout"; e; l ] ->
    let* elapsed = dec_f e in
    let* limit = dec_f l in
    Ok (Ipdb_run.Error.Timeout { elapsed; limit })
  | [ "steps"; u; l ] ->
    let* used = int_tok "step count" u in
    let* limit = int_tok "step limit" l in
    Ok (Ipdb_run.Error.Steps { used; limit })
  | [ "cancelled" ] -> Ok Ipdb_run.Error.Cancelled
  | toks -> Error (Printf.sprintf "unparsable exhaustion %S" (String.concat " " toks))

let error_to_tokens = function
  | Ipdb_run.Error.Parse { what; msg } -> [ "parse"; tok_escape what; tok_escape msg ]
  | Ipdb_run.Error.Validation { what; msg } -> [ "validation"; tok_escape what; tok_escape msg ]
  | Ipdb_run.Error.Certificate { what; msg } -> [ "certificate"; tok_escape what; tok_escape msg ]
  | Ipdb_run.Error.Io { path; msg } -> [ "io"; tok_escape path; tok_escape msg ]
  | Ipdb_run.Error.Locked { path; msg } -> [ "locked"; tok_escape path; tok_escape msg ]
  | Ipdb_run.Error.Fenced { what; stale; current } ->
    [ "fenced"; tok_escape what; string_of_int stale; string_of_int current ]
  | Ipdb_run.Error.Exhausted { what; reason } ->
    "exhausted" :: tok_escape what :: exhaustion_to_tokens reason
  | Ipdb_run.Error.Injected_fault { site } -> [ "fault"; tok_escape site ]
  | Ipdb_run.Error.Internal { msg } -> [ "internal"; tok_escape msg ]

let error_of_tokens toks =
  let two k what msg =
    let* what = tok_unescape what in
    let* msg = tok_unescape msg in
    Ok (k ~what ~msg)
  in
  match toks with
  | [ "parse"; w; m ] -> two (fun ~what ~msg -> Ipdb_run.Error.Parse { what; msg }) w m
  | [ "validation"; w; m ] -> two (fun ~what ~msg -> Ipdb_run.Error.Validation { what; msg }) w m
  | [ "certificate"; w; m ] -> two (fun ~what ~msg -> Ipdb_run.Error.Certificate { what; msg }) w m
  | [ "io"; p; m ] -> two (fun ~what ~msg -> Ipdb_run.Error.Io { path = what; msg }) p m
  | [ "locked"; p; m ] -> two (fun ~what ~msg -> Ipdb_run.Error.Locked { path = what; msg }) p m
  | [ "fenced"; w; s; c ] ->
    let* what = tok_unescape w in
    let* stale = int_tok "stale epoch" s in
    let* current = int_tok "current epoch" c in
    Ok (Ipdb_run.Error.Fenced { what; stale; current })
  | "exhausted" :: w :: rest ->
    let* what = tok_unescape w in
    let* reason = exhaustion_of_tokens rest in
    Ok (Ipdb_run.Error.Exhausted { what; reason })
  | [ "fault"; s ] ->
    let* site = tok_unescape s in
    Ok (Ipdb_run.Error.Injected_fault { site })
  | [ "internal"; m ] ->
    let* msg = tok_unescape m in
    Ok (Ipdb_run.Error.Internal { msg })
  | toks -> Error (Printf.sprintf "unparsable error %S" (String.concat " " toks))

let verdict_serialize v =
  let tokens =
    match v with
    | Finite_sum e -> [ "finite"; enc_f (Interval.lo e); enc_f (Interval.hi e) ]
    | Infinite_sum { partial; at } -> [ "infinite"; enc_f partial; string_of_int at ]
    | Partial { enclosure; partial; at; requested; exhausted } ->
      let enc =
        match enclosure with
        | None -> [ "none" ]
        | Some e -> [ "some"; enc_f (Interval.lo e); enc_f (Interval.hi e) ]
      in
      ("partial" :: enc)
      @ [ enc_f partial; string_of_int at; string_of_int requested ]
      @ exhaustion_to_tokens exhausted
    | Invalid_certificate msg -> [ "invalid"; tok_escape msg ]
    | Check_failed e -> "failed" :: error_to_tokens e
  in
  String.concat " " tokens

let interval_of lo_s hi_s =
  let* lo = dec_f lo_s in
  let* hi = dec_f hi_s in
  if Float.is_nan lo || Float.is_nan hi || lo > hi then
    Error "endpoints do not form an interval"
  else Ok (Interval.make lo hi)

let verdict_deserialize s =
  match String.split_on_char ' ' (String.trim s) with
  | [ "finite"; lo_s; hi_s ] ->
    let* e = interval_of lo_s hi_s in
    Ok (Finite_sum e)
  | [ "infinite"; p_s; at_s ] ->
    let* partial = dec_f p_s in
    let* at = int_tok "index" at_s in
    Ok (Infinite_sum { partial; at })
  | "partial" :: rest -> (
    let finish enclosure rest =
      match rest with
      | p_s :: at_s :: req_s :: exh ->
        let* partial = dec_f p_s in
        let* at = int_tok "index" at_s in
        let* requested = int_tok "requested index" req_s in
        let* exhausted = exhaustion_of_tokens exh in
        Ok (Partial { enclosure; partial; at; requested; exhausted })
      | _ -> Error "truncated partial verdict"
    in
    match rest with
    | "none" :: rest -> finish None rest
    | "some" :: lo_s :: hi_s :: rest ->
      let* e = interval_of lo_s hi_s in
      finish (Some e) rest
    | _ -> Error "unparsable partial enclosure")
  | [ "invalid"; m ] ->
    let* msg = tok_unescape m in
    Ok (Invalid_certificate msg)
  | "failed" :: rest ->
    let* e = error_of_tokens rest in
    Ok (Check_failed e)
  | tag :: _ -> Error (Printf.sprintf "unknown verdict tag %S" tag)
  | [] -> Error "empty verdict"

let verdict_to_string = function
  | Finite_sum e -> Printf.sprintf "finite: sum in [%g, %g]" (Interval.lo e) (Interval.hi e)
  | Infinite_sum { partial; at } -> Printf.sprintf "infinite (certified; partial %g after %d terms)" partial at
  | Partial { enclosure; partial; at; requested; exhausted } ->
    let enc =
      match enclosure with
      | Some e -> Printf.sprintf "; certified enclosure so far [%g, %g]" (Interval.lo e) (Interval.hi e)
      | None -> ""
    in
    Printf.sprintf "partial: %s after %d of %d terms (partial sum %g%s)"
      (Ipdb_run.Error.exhaustion_to_string exhausted)
      at requested partial enc
  | Invalid_certificate msg -> "certificate failed: " ^ msg
  | Check_failed e -> Ipdb_run.Error.to_string e

(* ------------------------------------------------------------------ *)
(* Lemma 3.3                                                           *)
(* ------------------------------------------------------------------ *)

let binomial n k =
  if k < 0 || k > n then Q.zero
  else begin
    let rec go acc i =
      if i > k then acc else go (Q.div (Q.mul acc (Q.of_int (n - i + 1))) (Q.of_int i)) (i + 1)
    in
    go Q.one 1
  end

let lemma33_bound ~view ~input_schema ~input_moment ~k =
  let m = List.length (View.defs view) in
  let r =
    List.fold_left (fun acc (d : View.def) -> Stdlib.max acc (List.length d.View.head)) 0 (View.defs view)
  in
  let c = View.max_constants_in_def view in
  let r' = Schema.max_arity input_schema in
  let rk = r * k in
  (* Batched-GCD accumulation: the committed sum is identical to the
     eager [Q.add] fold, just cheaper on the long common-denominator
     chains these binomial series produce. *)
  let total = Q.Accum.create () in
  for j = 0 to rk do
    (* C(rk, j) r'^j c^(rk-j) E(|·|^j); with c = 0 only the j = rk term
       survives (0^0 = 1 by the binomial-formula convention) *)
    let const_pow = if rk - j = 0 then Q.one else Q.pow (Q.of_int c) (rk - j) in
    Q.Accum.add total
      (Q.mul (binomial rk j) (Q.mul (Q.pow (Q.of_int r') j) (Q.mul const_pow (input_moment j))))
  done;
  Q.mul (Q.pow (Q.of_int m) k) (Q.Accum.total total)

(* ------------------------------------------------------------------ *)
(* Lemma 3.6                                                           *)
(* ------------------------------------------------------------------ *)

type lemma36_data = {
  vn_size : int;
  r : int;
  en_mass : Q.t;
  bound : float;
  exact_lhs : Q.t option;
}

let marginal_of ti =
  let assoc = Ti.Finite.facts ti in
  fun fact -> match List.assoc_opt fact assoc with Some p -> p | None -> Q.zero

let lemma36_bound ~ti ~view ~world =
  let r = Stdlib.max 1 (Schema.max_arity (Ti.Finite.schema ti)) in
  let view_constants = View.constants view in
  let vn =
    List.filter (fun v -> not (List.exists (Value.equal v) view_constants)) (Instance.adom world)
  in
  let vn_size = List.length vn in
  let en =
    List.filter
      (fun (fact, _) -> List.exists (fun v -> List.exists (Value.equal v) vn) (Ipdb_relational.Fact.values fact))
      (Ti.Finite.facts ti)
  in
  let en_mass = Q.sum (List.map snd en) in
  let bound =
    if vn_size = 0 then 1.0
    else begin
      let vnf = float_of_int vn_size and rf = float_of_int r in
      vnf *. ((rf *. rf *. (vnf ** (rf -. 1.0)) *. Q.to_float en_mass) ** (vnf /. rf))
    end
  in
  let exact_lhs =
    let uncertain = List.length (Ti.Finite.uncertain_facts ti) in
    if uncertain > Ipdb_pdb.Worlds.max_uncertain then None
    else begin
      let expanded = Ti.Finite.to_finite_pdb ti in
      let image = Finite_pdb.map_view view expanded in
      Some (Finite_pdb.prob image world)
    end
  in
  { vn_size; r; en_mass; bound; exact_lhs }

let minimal_cover_sum ~ti ~target =
  let facts = List.map fst (Ti.Finite.facts ti) in
  let h = Hypergraph.of_facts facts in
  let target_set = Hypergraph.VSet.of_list target in
  let marginal = marginal_of ti in
  let covers = Hypergraph.minimal_edge_covers h ~target:target_set in
  Q.sum
    (List.map
       (fun cover ->
         Q.prod
           (List.map
              (fun (e : Hypergraph.edge) ->
                match e.Hypergraph.label with Some f -> marginal f | None -> Q.zero)
              cover))
       covers)

(* ------------------------------------------------------------------ *)
(* Lemma 3.7                                                           *)
(* ------------------------------------------------------------------ *)

let lemma37_rhs ~r ~a_n ~d_n =
  let d = float_of_int d_n and rf = float_of_int r in
  d *. ((a_n *. (d ** (rf -. 1.0))) ** (d /. rf))

let lemma37_refutation ~prob ~adom_size ~a ~rs ~range =
  let lo, hi = range in
  List.map
    (fun r ->
      let violations = ref 0 in
      for n = lo to hi do
        let d_n = adom_size n in
        if d_n > 0 && prob n >= lemma37_rhs ~r ~a_n:(a n) ~d_n then incr violations
      done;
      (r, !violations))
    rs
