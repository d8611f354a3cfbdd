(* The kb subsystem (lib/kb): columnar store invariants, the ipdbkb1 file
   format, and — the heart of it — agreement of the lifted UCQ engine with
   brute-force world enumeration on every sub-gate instance, plus the
   metamorphic guarantees (union reordering and bound-variable renaming
   leave the exact marginal bit-identical, and parallel evaluation matches
   the serial run step for step). *)

module Q = Ipdb_bignum.Q
module Value = Ipdb_relational.Value
module Schema = Ipdb_relational.Schema
module Fact = Ipdb_relational.Fact
module Fo = Ipdb_logic.Fo
module Ti = Ipdb_pdb.Ti
module Pqe = Ipdb_pdb.Pqe
module Generate = Ipdb_pdb.Generate
module Budget = Ipdb_run.Budget
module Error = Ipdb_run.Error
module Pool = Ipdb_par.Pool
module Store = Ipdb_kb.Store
module Kbfile = Ipdb_kb.Kbfile
module Lifted = Ipdb_kb.Lifted

let prop ?(count = 200) name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)
let fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let schema = Schema.make [ ("R", 2); ("S", 2); ("T", 1) ]

let store_of_ti ti =
  let store = Store.create (Schema.relations (Ti.Finite.schema ti)) in
  List.iter
    (fun (f, p) ->
      match Store.add store ~rel:(Fact.rel f) (Array.of_list (Fact.args f)) p with
      | Ok () -> ()
      | Error m -> failwith ("store_of_ti: " ^ m))
    (Ti.Finite.facts ti);
  store

let q_str = Q.to_string

(* ------------------------------------------------------------------ *)
(* Random sub-gate UCQs over {R/2, S/2, T/1}                           *)
(* ------------------------------------------------------------------ *)

(* Small closed UCQs: 1–3 union terms, 1–3 atoms each, variables from a
   3-name supply, constants occasionally outside the generated universe so
   the absent-constant (probability-0) path is exercised too. *)
let arb_ucq =
  let ucq_print ucq = Fo.to_string (Pqe.ucq_to_formula ucq) in
  let gen_term st =
    match Random.State.int st 4 with
    | 0 -> Fo.C (Value.int (Random.State.int st 5))
    | _ -> Fo.V [| "x"; "y"; "z" |].(Random.State.int st 3)
  in
  let gen_atom st =
    let rel, arity = [| ("R", 2); ("S", 2); ("T", 1) |].(Random.State.int st 3) in
    { Pqe.rel; args = List.init arity (fun _ -> gen_term st) }
  in
  let gen_cq st =
    let atoms = List.init (1 + Random.State.int st 3) (fun _ -> gen_atom st) in
    let vars =
      List.sort_uniq compare
        (List.concat_map (fun a -> List.filter_map (function Fo.V v -> Some v | Fo.C _ -> None) a.Pqe.args) atoms)
    in
    { Pqe.exists = vars; atoms }
  in
  QCheck.make ~print:ucq_print (fun st -> List.init (1 + Random.State.int st 3) (fun _ -> gen_cq st))

type kb_case = { seed : int; facts : int; ucq : Pqe.ucq }

let arb_kb_case =
  QCheck.make
    ~print:(fun c -> Printf.sprintf "seed=%d facts=%d %s" c.seed c.facts (Fo.to_string (Pqe.ucq_to_formula c.ucq)))
    QCheck.Gen.(
      let* seed = 0 -- 10_000 in
      let* facts = 0 -- 8 in
      let* ucq = QCheck.gen arb_ucq in
      return { seed; facts; ucq })

let instance_of c = store_of_ti (Generate.ti (Generate.rng c.seed) ~schema ~facts:c.facts ~universe:3)

let ti_of c = Generate.ti (Generate.rng c.seed) ~schema ~facts:c.facts ~universe:3

(* ------------------------------------------------------------------ *)
(* Agreement: lifted UCQ = enumeration on every safe instance          *)
(* ------------------------------------------------------------------ *)

let lifted_agrees_with_enumeration c =
  let ti = ti_of c in
  let store = store_of_ti ti in
  let exact = Pqe.boolean_probability_exact ti (Pqe.ucq_to_formula c.ucq) in
  match Lifted.ucq_probability store c.ucq with
  | Error e -> fail "lifted errored: %s" (Error.message e)
  | Ok (Some p) ->
      if Q.equal p exact then true
      else fail "lifted %s <> enumeration %s" (q_str p) (q_str exact)
  | Ok None -> (
      (* The kb safety check is strictly more permissive than Pqe's
         whole-CQ one: anything Pqe lifts, the kb engine must lift too. *)
      match Pqe.lifted_ucq_probability ti c.ucq with
      | None -> true
      | Some q -> fail "kb engine refused a query Pqe lifts (p=%s)" (q_str q))

(* ------------------------------------------------------------------ *)
(* Metamorphic: reordering and renaming leave the marginal bit-identical *)
(* ------------------------------------------------------------------ *)

let rename_cq i cq =
  let fresh = List.mapi (fun j v -> (v, Printf.sprintf "m%d_%d_%s" i j v)) cq.Pqe.exists in
  let tm = function Fo.V v -> Fo.V (try List.assoc v fresh with Not_found -> v) | c -> c in
  {
    Pqe.exists = List.map snd fresh;
    atoms = List.map (fun a -> { a with Pqe.args = List.map tm a.Pqe.args }) cq.Pqe.atoms;
  }

let metamorphic_invariance c =
  let store = instance_of c in
  let run ucq =
    match Lifted.ucq_probability store ucq with
    | Ok r -> r
    | Error e -> QCheck.Test.fail_report ("lifted errored: " ^ Error.message e)
  in
  let base = run c.ucq in
  let reordered = run (List.rev c.ucq) in
  let renamed = run (List.mapi rename_cq c.ucq) in
  match (base, reordered, renamed) with
  | None, None, None -> true
  | Some p, Some p', Some p'' ->
      (* Normalised rationals: numeric equality is structural equality, so
         the printed form must match byte for byte as well. *)
      if Q.equal p p' && Q.equal p p'' && String.equal (q_str p) (q_str p') && String.equal (q_str p) (q_str p'')
      then true
      else fail "marginal not invariant: %s / %s / %s" (q_str p) (q_str p') (q_str p'')
  | _ -> fail "safety verdict not invariant under reorder/rename"

(* ------------------------------------------------------------------ *)
(* Parallel determinism: pool fan-out is invisible                      *)
(* ------------------------------------------------------------------ *)

let test_parallel_matches_serial () =
  (* Enough root candidates to clear par_threshold so the pool path runs. *)
  let n = Lifted.par_threshold + 500 in
  let sch = Schema.make [ ("T", 1) ] in
  let ti = Generate.ti (Generate.rng 11) ~schema:sch ~facts:n ~universe:(4 * n) in
  let store = store_of_ti ti in
  let phi = Fo.Exists ("x", Fo.Atom ("T", [ Fo.V "x" ])) in
  let pool = Pool.create ~jobs:3 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let run ?pool () =
        let budget = Budget.make ~max_steps:1_000_000 () in
        match Lifted.query ?pool ~budget store phi with
        | Ok (Lifted.Exact p) -> (p, Budget.steps_used budget)
        | Ok (Lifted.Estimated _) -> Alcotest.fail "safe query fell back to sampling"
        | Error e -> Alcotest.fail (Error.message e)
      in
      let p_serial, steps_serial = run () in
      let p_par, steps_par = run ~pool () in
      Alcotest.(check bool) "parallel marginal bit-identical" true (Q.equal p_serial p_par);
      Alcotest.(check string) "identical printed form" (q_str p_serial) (q_str p_par);
      Alcotest.(check int) "step count independent of jobs" steps_serial steps_par;
      Alcotest.(check int) "one step per root candidate" n steps_serial)

(* The independent-project identity on a kb whose root candidates span
   several pool chunks: ∃x∃y R(x,y) = 1 − ∏(1 − p) over the R column, the
   product taken as the reference left fold, with 1 and 4 workers. *)
let test_project_identity () =
  let n = (2 * Lifted.par_threshold) + 600 in
  let sch = Schema.make [ ("R", 2) ] in
  let store = store_of_ti (Generate.ti (Generate.rng 23) ~schema:sch ~facts:n ~universe:(8 * n)) in
  let h = Option.get (Store.handle store "R") in
  let rows = List.init (Store.handle_rows h) Fun.id in
  let roots = List.sort_uniq compare (List.map (fun row -> Store.cell h ~row ~pos:0) rows) in
  Alcotest.(check bool) "root candidates span more than two chunks" true
    (List.length roots > 2 * Lifted.par_threshold);
  let expected = Q.one_minus (Q.Reference.prod (List.map (fun row -> Q.one_minus (Store.row_prob h row)) rows)) in
  let phi = Fo.Exists ("x", Fo.Exists ("y", Fo.Atom ("R", [ Fo.V "x"; Fo.V "y" ]))) in
  let run jobs =
    let pool = Pool.create ~jobs () in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        let budget = Budget.make ~max_steps:1_000_000 () in
        match Lifted.query ~pool ~budget store phi with
        | Ok (Lifted.Exact p) -> (p, Budget.steps_used budget)
        | Ok (Lifted.Estimated _) -> Alcotest.fail "safe query fell back to sampling"
        | Error e -> Alcotest.fail (Error.message e))
  in
  let p1, steps1 = run 1 and p4, steps4 = run 4 in
  Alcotest.(check bool) "jobs=1 equals 1 − Reference.prod" true (Q.equal p1 expected);
  Alcotest.(check bool) "jobs=4 equals 1 − Reference.prod" true (Q.equal p4 expected);
  Alcotest.(check int) "step count independent of jobs" steps1 steps4;
  Alcotest.(check int) "one step per candidate at each depth" (List.length roots + List.length rows) steps1

(* ------------------------------------------------------------------ *)
(* Store unit tests                                                    *)
(* ------------------------------------------------------------------ *)

let test_store_basics () =
  let s = Store.create [ ("R", 2); ("T", 1) ] in
  let add rel args p = Store.add s ~rel args p in
  (match add "R" [| Value.int 1; Value.int 2 |] (Q.of_ints 1 2) with Ok () -> () | Error m -> Alcotest.fail m);
  (match add "R" [| Value.int 1; Value.int 2 |] (Q.of_ints 1 3) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate tuple accepted");
  (match add "R" [| Value.int 1 |] Q.one with Error _ -> () | Ok () -> Alcotest.fail "arity mismatch accepted");
  (match add "U" [| Value.int 1 |] Q.one with Error _ -> () | Ok () -> Alcotest.fail "unknown relation accepted");
  (match add "T" [| Value.str "a" |] Q.zero with Ok () -> () | Error m -> Alcotest.fail m);
  Alcotest.(check int) "zero marginal dropped" 1 (Store.fact_count s);
  (match add "T" [| Value.str "a" |] (Q.of_ints 2 3) with Ok () -> () | Error m -> Alcotest.fail m);
  Alcotest.(check int) "fact count" 2 (Store.fact_count s);
  Alcotest.(check bool) "marginal lookup" true (Q.equal (Q.of_ints 1 2) (Store.marginal s ~rel:"R" [| Value.int 1; Value.int 2 |]));
  Alcotest.(check bool) "absent fact has marginal 0" true (Q.is_zero (Store.marginal s ~rel:"T" [| Value.str "b" |]));
  Alcotest.(check bool) "expected size is the marginal sum" true
    (Q.equal (Q.add (Q.of_ints 1 2) (Q.of_ints 2 3)) (Store.expected_size s))

let test_store_spill () =
  (* A denominator far beyond the native-int fast path must round-trip
     exactly through the spill table. *)
  let s = Store.create [ ("T", 1) ] in
  let big = Q.div Q.one (Q.of_string "36893488147419103232") (* 2^65 *) in
  (match Store.add s ~rel:"T" [| Value.int 0 |] big with Ok () -> () | Error m -> Alcotest.fail m);
  (match Store.add s ~rel:"T" [| Value.int 1 |] (Q.of_ints 1 2) with Ok () -> () | Error m -> Alcotest.fail m);
  Alcotest.(check int) "one marginal spilled" 1 (Store.spilled s);
  Alcotest.(check bool) "spilled marginal exact" true (Q.equal big (Store.marginal s ~rel:"T" [| Value.int 0 |]))

let test_store_rows_matching () =
  let s = Store.create [ ("R", 2) ] in
  let tuples = [ (1, 10); (1, 20); (2, 10); (3, 30) ] in
  List.iter
    (fun (a, b) ->
      match Store.add s ~rel:"R" [| Value.int a; Value.int b |] (Q.of_ints 1 2) with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    tuples;
  let h = Option.get (Store.handle s "R") in
  let id v = Option.get (Store.intern_find s (Value.int v)) in
  let col pos rows = Array.to_list (Array.map (fun r -> Store.cell h ~row:r ~pos) rows) in
  let rows_1x = Store.rows_matching h ~mask:0b01 ~key:[| id 1 |] in
  Alcotest.(check int) "two rows bind position 0 to 1" 2 (Array.length rows_1x);
  Alcotest.(check (list int)) "both match on position 0" [ id 1; id 1 ] (col 0 rows_1x);
  let rows_x10 = Store.rows_matching h ~mask:0b10 ~key:[| id 10 |] in
  Alcotest.(check int) "two rows bind position 1 to 10" 2 (Array.length rows_x10);
  let rows_exact = Store.rows_matching h ~mask:0b11 ~key:[| id 2; id 10 |] in
  Alcotest.(check int) "full-tuple probe" 1 (Array.length rows_exact);
  Alcotest.(check int) "no row for an absent key" 0 (Array.length (Store.rows_matching h ~mask:0b01 ~key:[| id 30 |]))

(* ------------------------------------------------------------------ *)
(* ipdbkb1 file format                                                 *)
(* ------------------------------------------------------------------ *)

let with_tmp f =
  let path = Filename.temp_file "ipdb_test_kb" ".kb" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_kbfile_roundtrip () =
  with_tmp (fun path ->
      let big = Q.div Q.one (Q.of_string "36893488147419103232") in
      let facts =
        [
          ("R", [| Value.int 1; Value.str "alice" |], Q.of_ints 1 3);
          ("R", [| Value.bot; Value.int (-4) |], big);
          ("T", [| Value.str "x2" |], Q.one);
          ("T", [| Value.int 7 |], Q.zero);
        ]
      in
      (match Kbfile.write ~path ~relations:[ ("R", 2); ("T", 1) ] (List.to_seq facts) with
      | Ok n -> Alcotest.(check int) "four fact lines written" 4 n
      | Error e -> Alcotest.fail (Error.message e));
      match Kbfile.load path with
      | Error e -> Alcotest.fail (Error.message e)
      | Ok loaded ->
          Alcotest.(check int) "three facts survive" 3 loaded.Kbfile.facts;
          Alcotest.(check int) "zero marginal dropped on load" 1 loaded.Kbfile.zero_dropped;
          Alcotest.(check bool) "no torn tail" false loaded.Kbfile.torn_tail;
          List.iter
            (fun (rel, args, p) ->
              let got = Store.marginal loaded.Kbfile.store ~rel args in
              let want = if Q.is_zero p then Q.zero else p in
              if not (Q.equal got want) then
                Alcotest.fail (Printf.sprintf "marginal of %s drifted: %s <> %s" rel (q_str got) (q_str want)))
            facts;
          (* The digest is a pure function of the bytes consumed. *)
          (match Kbfile.load path with
          | Ok again -> Alcotest.(check int64) "digest stable across loads" loaded.Kbfile.digest again.Kbfile.digest
          | Error e -> Alcotest.fail (Error.message e)))

let test_kbfile_torn_tail () =
  with_tmp (fun path ->
      let facts = [ ("T", [| Value.int 1 |], Q.of_ints 1 2); ("T", [| Value.int 2 |], Q.of_ints 1 4) ] in
      (match Kbfile.write ~path ~relations:[ ("T", 1) ] (List.to_seq facts) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Error.message e));
      (match Kbfile.load path with
      | Ok l -> Alcotest.(check bool) "clean file has no torn tail" false l.Kbfile.torn_tail
      | Error e -> Alcotest.fail (Error.message e));
      (* Simulate a crash mid-append: a final line with no newline. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "T 1/8 3";
      close_out oc;
      match Kbfile.load path with
      | Error e -> Alcotest.fail ("torn tail rejected: " ^ Error.message e)
      | Ok l ->
          Alcotest.(check bool) "torn tail flagged" true l.Kbfile.torn_tail;
          Alcotest.(check int) "partial record ignored" 2 l.Kbfile.facts;
          Alcotest.(check bool) "partial fact absent" true (Q.is_zero (Store.marginal l.Kbfile.store ~rel:"T" [| Value.int 3 |])))

let write_raw path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let test_kbfile_malformed () =
  with_tmp (fun path ->
      write_raw path "not-a-kb-file\n";
      (match Kbfile.load path with
      | Error (Error.Parse _) -> ()
      | Error e -> Alcotest.fail ("wrong error for bad magic: " ^ Error.message e)
      | Ok _ -> Alcotest.fail "bad magic accepted");
      write_raw path "ipdbkb1\nrel T 1\nT nonsense 5\nT 1/2 6\n";
      (match Kbfile.load path with
      | Error (Error.Parse _) -> ()
      | Error e -> Alcotest.fail ("wrong error for bad marginal: " ^ Error.message e)
      | Ok _ -> Alcotest.fail "malformed mid-file record accepted");
      write_raw path "ipdbkb1\nrel T 1\nT 1/2 5\nT 1/3 5\n";
      (match Kbfile.load path with
      | Error (Error.Validation _) -> ()
      | Error e -> Alcotest.fail ("wrong error for duplicate fact: " ^ Error.message e)
      | Ok _ -> Alcotest.fail "duplicate fact accepted");
      write_raw path "ipdbkb1\nrel T 1\n# comment\n\nT 3/4 9\n";
      match Kbfile.load path with
      | Ok l -> Alcotest.(check int) "comments and blank lines skipped" 1 l.Kbfile.facts
      | Error e -> Alcotest.fail (Error.message e))

(* ------------------------------------------------------------------ *)
(* Generator exactness                                                 *)
(* ------------------------------------------------------------------ *)

type gen_case = { gseed : int; guniverse : int; gfacts : int }

let arb_gen_case =
  QCheck.make
    ~print:(fun c -> Printf.sprintf "seed=%d universe=%d facts=%d" c.gseed c.guniverse c.gfacts)
    QCheck.Gen.(
      let* gseed = 0 -- 10_000 in
      let* guniverse = 1 -- 5 in
      (* capacity of {R/2, S/2, T/1} at this universe *)
      let cap = (2 * guniverse * guniverse) + guniverse in
      let* gfacts = 0 -- cap in
      return { gseed; guniverse; gfacts })

let generator_fact_count_exact c =
  let ti = Generate.ti (Generate.rng c.gseed) ~schema ~facts:c.gfacts ~universe:c.guniverse in
  let facts = Ti.Finite.facts ti in
  let distinct = List.sort_uniq (fun (a, _) (b, _) -> Fact.compare a b) facts in
  if List.length facts <> c.gfacts then fail "ti yielded %d facts, wanted %d" (List.length facts) c.gfacts
  else if List.length distinct <> c.gfacts then fail "ti yielded duplicate facts"
  else true

let kb_stream_count_exact c =
  let seq = Generate.kb_stream (Generate.rng c.gseed) ~relations:(Schema.relations schema) ~facts:c.gfacts ~universe:c.guniverse in
  let facts = List.of_seq seq in
  let key (rel, args, _) = (rel, Array.to_list args) in
  let distinct = List.sort_uniq compare (List.map key facts) in
  if List.length facts <> c.gfacts then fail "kb_stream yielded %d facts, wanted %d" (List.length facts) c.gfacts
  else if List.length distinct <> c.gfacts then fail "kb_stream yielded duplicate facts"
  else if not (List.for_all (fun (_, _, p) -> Q.compare p Q.zero > 0 && Q.compare p Q.one <= 0) facts) then
    fail "kb_stream marginal outside (0, 1]"
  else true

let test_generator_at_capacity () =
  (* facts = capacity must enumerate the whole fact space, and one more
     must be refused loudly. *)
  let u = 3 in
  let cap = (2 * u * u) + u in
  let ti = Generate.ti (Generate.rng 5) ~schema ~facts:cap ~universe:u in
  Alcotest.(check int) "all facts at capacity" cap (List.length (Ti.Finite.facts ti));
  match Generate.ti (Generate.rng 5) ~schema ~facts:(cap + 1) ~universe:u with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "over-capacity request accepted"

(* ------------------------------------------------------------------ *)
(* Independence                                                        *)
(* ------------------------------------------------------------------ *)

let test_independence () =
  let s = Store.create [ ("R", 2); ("T", 1) ] in
  let ok = function Ok () -> () | Error m -> Alcotest.fail m in
  ok (Store.add s ~rel:"R" [| Value.int 1; Value.int 2 |] (Q.of_ints 1 2));
  ok (Store.add s ~rel:"T" [| Value.int 9 |] (Q.of_ints 1 3));
  let q1 = Fo.Exists ("x", Fo.Exists ("y", Fo.Atom ("R", [ Fo.V "x"; Fo.V "y" ]))) in
  let q2 = Fo.Exists ("x", Fo.Atom ("T", [ Fo.V "x" ])) in
  (match Lifted.independence s q1 q2 with
  | Ok (indep, p1, p2, p12) ->
      Alcotest.(check bool) "disjoint relations are independent" true indep;
      Alcotest.(check bool) "product law" true (Q.equal p12 (Q.mul p1 p2))
  | Error e -> Alcotest.fail (Error.message e));
  match Lifted.independence s q1 q1 with
  | Ok (indep, p1, _, p12) ->
      (* Q ∧ Q ≡ Q: independent only when Pr(Q) ∈ {0, 1}. *)
      Alcotest.(check bool) "query not independent of itself" false indep;
      Alcotest.(check bool) "conjunction collapses" true (Q.equal p12 p1)
  | Error e -> Alcotest.fail (Error.message e)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "kb"
    [
      ( "lifted",
        [
          prop "lifted UCQ = boolean_probability_exact on sub-gate instances" arb_kb_case lifted_agrees_with_enumeration;
          prop ~count:150 "union reordering and CQ renaming are invisible" arb_kb_case metamorphic_invariance;
          Alcotest.test_case "pool fan-out is bit-identical and step-invariant" `Quick test_parallel_matches_serial;
          Alcotest.test_case "independent-project identity across chunks" `Quick test_project_identity;
          Alcotest.test_case "exact independence certification" `Quick test_independence;
        ] );
      ( "store",
        [
          Alcotest.test_case "insert contract and marginal lookup" `Quick test_store_basics;
          Alcotest.test_case "bignum marginals spill exactly" `Quick test_store_spill;
          Alcotest.test_case "per-mask indexes answer bound-position probes" `Quick test_store_rows_matching;
        ] );
      ( "kbfile",
        [
          Alcotest.test_case "write/load roundtrip with stable digest" `Quick test_kbfile_roundtrip;
          Alcotest.test_case "torn tail is ignored and flagged" `Quick test_kbfile_torn_tail;
          Alcotest.test_case "malformed records are typed errors" `Quick test_kbfile_malformed;
        ] );
      ( "generate",
        [
          prop ~count:150 "ti yields exactly the requested distinct facts" arb_gen_case generator_fact_count_exact;
          prop ~count:100 "kb_stream yields exactly the requested facts" arb_gen_case kb_stream_count_exact;
          Alcotest.test_case "capacity boundary" `Quick test_generator_at_capacity;
        ] );
    ]
