(* Lifted UCQ inference over the indexed store. See lifted.mli. *)

module Q = Ipdb_bignum.Q
module Fo = Ipdb_logic.Fo
module Value = Ipdb_relational.Value
module Pqe = Ipdb_pdb.Pqe
module Estimate = Ipdb_pdb.Estimate
module Budget = Ipdb_run.Budget
module Run_error = Ipdb_run.Error
module Pool = Ipdb_par.Pool
module Chunk = Ipdb_par.Chunk
module Metrics = Ipdb_obs.Metrics
module Trace = Ipdb_obs.Trace

type mc = { samples : int; seed : int; delta : float }

type outcome =
  | Exact of Q.t
  | Estimated of Estimate.estimate

let par_threshold = 1024
let chunk_size = 1024

let m_exact = Metrics.counter "kb.query.exact"
let m_mc = Metrics.counter "kb.query.mc"
let m_subsets = Metrics.counter "kb.query.subsets"
let m_candidates = Metrics.counter "kb.query.candidates"

exception Unsafe of string
exception Trip of Run_error.exhaustion
exception Reject of Run_error.t

let check budget =
  match Budget.check budget with Ok () -> () | Error e -> raise (Trip e)

(* ------------------------------------------------------------------ *)
(* Compilation: Pqe atoms -> store handles and interned-id arguments    *)
(* ------------------------------------------------------------------ *)

type arg =
  | AVar of string
  | AId of int  (** interned value id *)

type latom = { tbl : Store.rel_handle; args : arg array }

let validate_schema store (ucq : Pqe.ucq) =
  List.iter
    (fun (q : Pqe.cq) ->
      List.iter
        (fun (a : Pqe.cq_atom) ->
          match Store.handle store a.rel with
          | None ->
            raise
              (Reject
                 (Run_error.Validation
                    { what = "kb.query"; msg = Printf.sprintf "unknown relation %s" a.rel }))
          | Some tbl ->
            let want = Store.handle_arity tbl in
            let got = List.length a.args in
            if want <> got then
              raise
                (Reject
                   (Run_error.Validation
                      {
                        what = "kb.query";
                        msg = Printf.sprintf "relation %s has arity %d, used with %d arguments" a.rel want got;
                      })))
        q.atoms)
    ucq

(* [None] when some constant occurs nowhere in the store: no fact can
   match the atom, so the whole conjunction has probability zero. *)
let compile store (q : Pqe.cq) =
  let exception Empty in
  try
    Some
      (List.map
         (fun (a : Pqe.cq_atom) ->
           let tbl =
             match Store.handle store a.rel with
             | Some tbl -> tbl
             | None -> raise Empty (* validated earlier; belt and braces *)
           in
           let args =
             Array.of_list
               (List.map
                  (function
                    | Fo.V x -> AVar x
                    | Fo.C v -> (
                      match Store.intern_find store v with
                      | Some id -> AId id
                      | None -> raise Empty))
                  a.args)
           in
           { tbl; args })
         q.atoms)
  with Empty -> None

let atom_vars a =
  Array.to_list a.args
  |> List.filter_map (function AVar x -> Some x | AId _ -> None)
  |> List.sort_uniq String.compare

let is_ground a = Array.for_all (function AId _ -> true | AVar _ -> false) a.args

(* Connected components of atoms under the shares-a-variable relation. *)
let components atoms =
  let rec grow comp vars rest =
    let more, rest =
      List.partition (fun a -> List.exists (fun x -> List.mem x vars) (atom_vars a)) rest
    in
    if more = [] then (List.rev comp, rest)
    else
      grow (List.rev_append more comp)
        (List.sort_uniq String.compare (vars @ List.concat_map atom_vars more))
        rest
  in
  let rec go = function
    | [] -> []
    | a :: rest ->
      let comp, rest = grow [ a ] (atom_vars a) rest in
      comp :: go rest
  in
  go atoms

(* ------------------------------------------------------------------ *)
(* Index access                                                        *)
(* ------------------------------------------------------------------ *)

(* Rows of [a.tbl] matching the AId positions of [a]. *)
let support_rows a =
  let arity = Array.length a.args in
  let mask = ref 0 and nbound = ref 0 in
  for pos = 0 to arity - 1 do
    match a.args.(pos) with
    | AId _ ->
      mask := !mask lor (1 lsl pos);
      incr nbound
    | AVar _ -> ()
  done;
  let key = Array.make !nbound 0 in
  let i = ref 0 in
  for pos = 0 to arity - 1 do
    match a.args.(pos) with
    | AId id ->
      key.(!i) <- id;
      incr i
    | AVar _ -> ()
  done;
  Store.rows_matching a.tbl ~mask:!mask ~key

let positions_of_var a x =
  let out = ref [] in
  Array.iteri (fun pos arg -> if arg = AVar x then out := pos :: !out) a.args;
  List.rev !out

let subst_atom x id a =
  { a with args = Array.map (function AVar y when String.equal y x -> AId id | arg -> arg) a.args }

(* ------------------------------------------------------------------ *)
(* The extensional plan                                                *)
(* ------------------------------------------------------------------ *)

let ground_key a = (Store.handle_name a.tbl, Array.map (function AId id -> id | AVar _ -> -1) a.args)

(* Product of marginals of distinct ground atoms (independent facts);
   zero as soon as one is absent. *)
let ground_product ground =
  let seen = Hashtbl.create 8 in
  let rec go acc = function
    | [] -> acc
    | a :: rest ->
      let k = ground_key a in
      if Hashtbl.mem seen k then go acc rest
      else begin
        Hashtbl.add seen k ();
        match support_rows a with
        | [||] -> Q.zero
        | rows -> go (Q.mul acc (Store.row_prob a.tbl rows.(0))) rest
      end
  in
  go Q.one ground

(* Candidate interned ids for [root] read from the component atom with
   the smallest support; rows whose repeated root positions disagree
   match no single binding and are dropped (exact); candidates are
   sorted ascending so evaluation order is deterministic. *)
let root_candidates comp root =
  let pick (best, best_rows) a =
    let rows = support_rows a in
    match best with
    | Some _ when Array.length rows >= Array.length best_rows -> (best, best_rows)
    | _ -> (Some a, rows)
  in
  let best, rows = List.fold_left pick (None, [||]) comp in
  let a = Option.get best in
  let poss = positions_of_var a root in
  let p0 = List.hd poss in
  let ids = Hashtbl.create 64 in
  Array.iter
    (fun row ->
      let v = Store.cell a.tbl ~row ~pos:p0 in
      if List.for_all (fun p -> Store.cell a.tbl ~row ~pos:p = v) poss then
        Hashtbl.replace ids v ())
    rows;
  let out = Hashtbl.fold (fun id () acc -> id :: acc) ids [] in
  Array.of_list (List.sort compare out)

let rec eval_atoms ?pool ~depth budget atoms =
  let ground, open_ = List.partition is_ground atoms in
  (* kb-refined safety: open atoms self-join-free, relations disjoint
     from the ground atoms' *)
  let open_rels = List.map (fun a -> Store.handle_name a.tbl) open_ in
  let sorted = List.sort String.compare open_rels in
  let rec dup = function a :: (b :: _ as r) -> if String.equal a b then Some a else dup r | _ -> None in
  (match dup sorted with
  | Some r -> raise (Unsafe (Printf.sprintf "self-join on %s" r))
  | None -> ());
  List.iter
    (fun g ->
      let r = Store.handle_name g.tbl in
      if List.mem r open_rels then
        raise (Unsafe (Printf.sprintf "relation %s occurs both ground and with variables" r)))
    ground;
  let pg = ground_product ground in
  if Q.is_zero pg then Q.zero
  else
    List.fold_left
      (fun acc comp -> if Q.is_zero acc then acc else Q.mul acc (eval_component ?pool ~depth budget comp))
      pg (components open_)

and eval_component ?pool ~depth budget comp =
  (* independent project: a root variable occurring in every atom *)
  let var_sets = List.map atom_vars comp in
  let all_vars = List.sort_uniq String.compare (List.concat var_sets) in
  let roots = List.filter (fun x -> List.for_all (List.mem x) var_sets) all_vars in
  match roots with
  | [] ->
    raise
      (Unsafe
         (Printf.sprintf "no root variable among {%s} (query not hierarchical)"
            (String.concat ", " all_vars)))
  | root :: _ ->
    let cands = root_candidates comp root in
    let n = Array.length cands in
    Metrics.add m_candidates n;
    (* The 1 − p factors land in one array, one slot per candidate; a
       single Q.prod multiplies them. The pool only evaluates leaves, in
       size-deterministic chunks: each slot is written by exactly one task,
       and map_ordered's hand-off publishes the writes before the product
       reads them. Canonical Q makes the product independent of the
       association, so the answer is bit-identical for any jobs count. *)
    let factors = Array.make n Q.one in
    let fill lo hi =
      for i = lo to hi do
        check budget;
        factors.(i) <-
          Q.one_minus (eval_atoms ?pool ~depth:(depth + 1) budget (List.map (subst_atom root cands.(i)) comp))
      done
    in
    (match pool with
    | Some pool when depth = 0 && n >= par_threshold ->
      let chunks = List.of_seq (Chunk.plan ~size:chunk_size ~start:0 ~upto:(n - 1) ()) in
      ignore (Pool.map_ordered pool ~f:(fun (c : Chunk.t) -> fill c.lo c.hi) chunks : unit list)
    | _ -> fill 0 (n - 1));
    Q.one_minus (Q.prod (Array.to_list factors))

let eval_conj ?pool budget store (q : Pqe.cq) =
  match compile store q with
  | None -> Q.zero
  | Some atoms -> eval_atoms ?pool ~depth:0 budget atoms

(* ------------------------------------------------------------------ *)
(* Inclusion–exclusion                                                 *)
(* ------------------------------------------------------------------ *)

let popcount m =
  let rec go acc m = if m = 0 then acc else go (acc + (m land 1)) (m lsr 1) in
  go 0 m

(* Raises [Unsafe] / [Trip]. *)
let ucq_exact ?pool budget store ucq =
  let terms = Array.of_list (Pqe.dedupe_ucq ucq) in
  let k = Array.length terms in
  if k = 0 then Q.zero
  else if k > Pqe.max_union_terms then
    raise (Unsafe (Printf.sprintf "union of %d terms exceeds the inclusion-exclusion gate (%d)" k Pqe.max_union_terms))
  else begin
    Metrics.add m_subsets ((1 lsl k) - 1);
    (* Signed sum over subsets via a batched accumulator: each term's
       normalisation cost is deferred, the total is canonical. *)
    let total = Q.Accum.create () in
    for mask = 1 to (1 lsl k) - 1 do
      let sel = ref [] in
      for i = k - 1 downto 0 do
        if mask land (1 lsl i) <> 0 then sel := terms.(i) :: !sel
      done;
      let conj = Pqe.normalize_closed_cq (Pqe.conjoin_cqs !sel) in
      let p = eval_conj ?pool budget store conj in
      if popcount mask land 1 = 1 then Q.Accum.add total p else Q.Accum.sub total p
    done;
    Q.Accum.total total
  end

let ucq_probability ?pool ?budget store ucq =
  let budget = Option.value budget ~default:Budget.unlimited in
  match ucq_exact ?pool budget store ucq with
  | p -> Ok (Some p)
  | exception Unsafe _ -> Ok None
  | exception Trip e -> Error (Run_error.Exhausted { what = "kb.query"; reason = e })

(* ------------------------------------------------------------------ *)
(* Monte-Carlo fallback                                                *)
(* ------------------------------------------------------------------ *)

(* Backtracking satisfaction of a compiled CQ in one sampled world.
   [included tbl row] says whether the world keeps that fact. *)
let sat_cq included atoms =
  let rec go env = function
    | [] -> true
    | a :: rest ->
      let arity = Array.length a.args in
      (* resolve env-bound variables to ids for this atom *)
      let resolved =
        Array.map
          (function
            | AId id -> AId id
            | AVar x -> ( match List.assoc_opt x env with Some id -> AId id | None -> AVar x))
          a.args
      in
      let a = { a with args = resolved } in
      let rows = support_rows a in
      let try_row row =
        if not (included a.tbl row) then false
        else begin
          (* bind free positions, checking repeated-variable consistency *)
          let env' = ref env in
          let ok = ref true in
          for pos = 0 to arity - 1 do
            match a.args.(pos) with
            | AId _ -> ()
            | AVar x -> (
              let v = Store.cell a.tbl ~row ~pos in
              match List.assoc_opt x !env' with
              | Some v' -> if v <> v' then ok := false
              | None -> env' := (x, v) :: !env')
          done;
          !ok && go !env' rest
        end
      in
      Array.exists try_row rows
  in
  go [] atoms

let mc_fallback budget store ucq { samples; seed; delta } =
  (match Estimate.validate_params ~samples ~delta with
  | Ok () -> ()
  | Error e -> raise (Reject e));
  let compiled = List.filter_map (compile store) ucq in
  (* float thresholds per row, precomputed once *)
  let tbls =
    let seen = Hashtbl.create 8 in
    List.concat compiled
    |> List.filter_map (fun a ->
         let name = Store.handle_name a.tbl in
         if Hashtbl.mem seen name then None
         else begin
           Hashtbl.add seen name ();
           Some a.tbl
         end)
  in
  let thresholds =
    List.map
      (fun tbl ->
        (Store.handle_name tbl, Array.init (Store.handle_rows tbl) (fun row -> Q.to_float (Store.row_prob tbl row))))
      tbls
  in
  let worlds = List.map (fun tbl -> (Store.handle_name tbl, Bytes.create (Store.handle_rows tbl))) tbls in
  let included tbl row =
    match List.assoc_opt (Store.handle_name tbl) worlds with
    | Some bits -> Bytes.get bits row = '\001'
    | None -> false
  in
  let st = Random.State.make [| seed |] in
  let hits = ref 0 in
  let completed = ref 0 in
  (try
     for _ = 1 to samples do
       check budget;
       List.iter
         (fun (name, bits) ->
           let ps = List.assoc name thresholds in
           Bytes.iteri (fun row _ -> Bytes.set bits row (if Random.State.float st 1.0 < ps.(row) then '\001' else '\000')) bits)
         worlds;
       if List.exists (sat_cq included) compiled then incr hits;
       incr completed
     done
   with Trip e -> if !completed = 0 then raise (Trip e));
  (* a budget trip mid-run degrades to the samples already drawn *)
  let n = !completed in
  match Estimate.hoeffding_halfwidth ~samples:n ~delta with
  | Error e -> raise (Reject e)
  | Ok hw ->
    {
      Estimate.mean = float_of_int !hits /. float_of_int n;
      samples = n;
      statistical_halfwidth = hw;
      truncation_bias = 0.;
      confidence = 1. -. delta;
    }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let ucq_of_sentence phi =
  match Pqe.ucq_of_formula phi with
  | Some ucq -> ucq
  | None ->
    raise
      (Reject
         (Run_error.Validation
            {
              what = "kb.query";
              msg = "query must be a positive-existential sentence (exists, and, or, atoms)";
            }))

let query ?pool ?budget ?mc store phi =
  Trace.with_span "kb.query" @@ fun () ->
  let budget = Option.value budget ~default:Budget.unlimited in
  match
    (let ucq = ucq_of_sentence phi in
     validate_schema store ucq;
     Trace.annotate [ ("terms", Ipdb_obs.Json.Int (List.length ucq)) ];
     match ucq_exact ?pool budget store ucq with
     | p ->
       Metrics.incr m_exact;
       Exact p
     | exception Unsafe why -> (
       match mc with
       | Some mc ->
         Metrics.incr m_mc;
         Trace.event "kb.query.fallback" ~attrs:[ ("why", Ipdb_obs.Json.String why) ];
         Estimated (mc_fallback budget store ucq mc)
       | None ->
         raise
           (Reject
              (Run_error.Validation
                 { what = "kb.query"; msg = Printf.sprintf "query has no safe lifted plan (%s) and no --mc-samples was given" why }))))
  with
  | outcome -> Ok outcome
  | exception Reject e -> Error e
  | exception Trip e -> Error (Run_error.Exhausted { what = "kb.query"; reason = e })

let independence ?pool ?budget store phi1 phi2 =
  Trace.with_span "kb.independence" @@ fun () ->
  let budget = Option.value budget ~default:Budget.unlimited in
  match
    let u1 = ucq_of_sentence phi1 and u2 = ucq_of_sentence phi2 in
    validate_schema store u1;
    validate_schema store u2;
    let u12 = List.concat_map (fun q1 -> List.map (fun q2 -> Pqe.conjoin_cqs [ q1; q2 ]) u2) u1 in
    let p1 = ucq_exact ?pool budget store u1 in
    let p2 = ucq_exact ?pool budget store u2 in
    let p12 = ucq_exact ?pool budget store u12 in
    (Q.equal p12 (Q.mul p1 p2), p1, p2, p12)
  with
  | r -> Ok r
  | exception Reject e -> Error e
  | exception Unsafe why ->
    Error
      (Run_error.Validation
         {
           what = "kb.independence";
           msg = Printf.sprintf "independence needs exact probabilities, but a query has no safe lifted plan (%s)" why;
         })
  | exception Trip e -> Error (Run_error.Exhausted { what = "kb.independence"; reason = e })
