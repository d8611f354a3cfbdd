(* Tests for interval arithmetic and the certified series engine. *)

module Q = Ipdb_bignum.Q
module Interval = Ipdb_series.Interval
module Series = Ipdb_series.Series

(* ------------------------------------------------------------------ *)
(* Interval                                                            *)
(* ------------------------------------------------------------------ *)

let arb_interval =
  QCheck.make
    ~print:(fun i -> Format.asprintf "%a" Interval.pp i)
    QCheck.Gen.(
      let* a = float_bound_inclusive 100.0 in
      let* b = float_bound_inclusive 100.0 in
      let* s1 = bool in
      let* s2 = bool in
      let a = if s1 then -.a else a and b = if s2 then -.b else b in
      return (Interval.make (Float.min a b) (Float.max a b)))

let prop ?(count = 500) name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let interval_props =
  [ prop "add encloses" (QCheck.pair arb_interval arb_interval) (fun (a, b) ->
        let c = Interval.add a b in
        Interval.contains c (Interval.lo a +. Interval.lo b) && Interval.contains c (Interval.hi a +. Interval.hi b));
    prop "mul encloses endpoint products" (QCheck.pair arb_interval arb_interval) (fun (a, b) ->
        let c = Interval.mul a b in
        List.for_all (Interval.contains c)
          [ Interval.lo a *. Interval.lo b; Interval.lo a *. Interval.hi b; Interval.hi a *. Interval.lo b; Interval.hi a *. Interval.hi b ]);
    prop "sub encloses" (QCheck.pair arb_interval arb_interval) (fun (a, b) ->
        let c = Interval.sub a b in
        Interval.contains c (Interval.midpoint a -. Interval.midpoint b));
    prop "pow_int encloses midpoint power" (QCheck.pair arb_interval QCheck.(0 -- 5)) (fun (a, k) ->
        let c = Interval.pow_int a k in
        Interval.contains c (Interval.midpoint a ** float_of_int k) || Interval.width a > 0.0);
    prop "union contains both" (QCheck.pair arb_interval arb_interval) (fun (a, b) ->
        let c = Interval.union a b in
        Interval.contains c (Interval.lo a) && Interval.contains c (Interval.hi b))
  ]

let test_interval_basics () =
  let i = Interval.make 1.0 2.0 in
  Alcotest.(check bool) "contains" true (Interval.contains i 1.5);
  Alcotest.(check bool) "certainly_lt" true (Interval.certainly_lt i (Interval.make 3.0 4.0));
  Alcotest.(check bool) "not certainly_lt overlap" false (Interval.certainly_lt i (Interval.make 1.5 4.0));
  Alcotest.check_raises "div by zero interval" Division_by_zero (fun () ->
      ignore (Interval.div Interval.one (Interval.make (-1.0) 1.0)));
  Alcotest.(check bool) "of_q encloses" true (Interval.contains (Interval.of_q (Q.of_ints 1 3)) (1.0 /. 3.0))

(* ------------------------------------------------------------------ *)
(* Series: convergent certificates                                     *)
(* ------------------------------------------------------------------ *)

let test_geometric_sum () =
  (* Σ (1/2)^n from 0 = 2 *)
  let term n = 0.5 ** float_of_int n in
  let s = Series.sum_exn ~start:0 term ~tail:(Series.Tail.Geometric { index = 0; first = 1.0; ratio = 0.5 }) ~upto:50 in
  Alcotest.(check bool) "encloses 2" true (Interval.contains s 2.0);
  Alcotest.(check bool) "tight" true (Interval.width s < 1e-9)

let test_p_series_sum () =
  (* Σ 1/n² = π²/6 *)
  let term n = 1.0 /. (float_of_int n *. float_of_int n) in
  let s = Series.sum_exn ~start:1 term ~tail:(Series.Tail.P_series { index = 1; coeff = 1.0; p = 2.0 }) ~upto:2000 in
  Alcotest.(check bool) "encloses pi^2/6" true (Interval.contains s (Float.pi *. Float.pi /. 6.0));
  Alcotest.(check bool) "reasonably tight" true (Interval.width s < 1e-2)

let test_exponential_sum () =
  let term n = 3.0 *. (0.25 ** float_of_int n) in
  let s = Series.sum_exn ~start:1 term ~tail:(Series.Tail.Exponential { index = 1; coeff = 3.0; rate = 0.25 }) ~upto:60 in
  Alcotest.(check bool) "encloses 1" true (Interval.contains s 1.0)

let test_finite_support () =
  let term n = if n <= 3 then 1.0 else 0.0 in
  let s = Series.sum_exn ~start:0 term ~tail:(Series.Tail.Finite_support { last = 3 }) ~upto:10 in
  Alcotest.(check bool) "encloses 4" true (Interval.contains s 4.0);
  Alcotest.(check bool) "exact-ish" true (Interval.width s < 1e-12)

let test_certificate_rejection () =
  (* a certificate whose pointwise bound the terms violate must be rejected *)
  let term n = 1.0 /. float_of_int n in
  (match Series.sum ~start:1 term ~tail:(Series.Tail.P_series { index = 1; coeff = 0.5; p = 2.0 }) ~upto:100 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "harmonic series accepted under a p-series certificate");
  (* negative terms are rejected *)
  (match Series.sum ~start:1 (fun n -> -.float_of_int n) ~tail:(Series.Tail.P_series { index = 1; coeff = 1.0; p = 2.0 }) ~upto:10 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative terms accepted");
  (* bad parameters are rejected *)
  match Series.sum ~start:1 term ~tail:(Series.Tail.P_series { index = 1; coeff = 1.0; p = 1.0 }) ~upto:10 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "p = 1 accepted"

(* ------------------------------------------------------------------ *)
(* Series: divergence certificates                                     *)
(* ------------------------------------------------------------------ *)

let test_harmonic_divergence () =
  let term n = 1.0 /. float_of_int n in
  match Series.certify_divergence ~start:1 term ~certificate:(Series.Divergence.Harmonic { index = 1; coeff = 1.0 }) ~upto:1000 with
  | Ok (Series.Diverges { partial; _ }) -> Alcotest.(check bool) "partial grows" true (partial > 7.0)
  | Ok (Series.Converges _) -> Alcotest.fail "wrong verdict"
  | Error e -> Alcotest.fail e

let test_divergence_rejection () =
  (* 1/n² does not admit a harmonic minorant *)
  let term n = 1.0 /. (float_of_int n *. float_of_int n) in
  match Series.certify_divergence ~start:1 term ~certificate:(Series.Divergence.Harmonic { index = 1; coeff = 1.0 }) ~upto:100 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "p-series accepted under harmonic minorant"

let test_subsequence_divergence () =
  (* terms: 1/k at even indices 2k, tiny elsewhere *)
  let term n = if n mod 2 = 0 then 2.0 /. float_of_int n else Float.ldexp 1.0 (-n) in
  let cert = Series.Divergence.Subsequence_harmonic { index = 1; pick = (fun k -> 2 * k); coeff = 1.0 } in
  (match Series.certify_divergence ~start:1 term ~certificate:cert ~upto:500 with
  | Ok (Series.Diverges _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "subsequence certificate rejected");
  (* non-increasing pick is rejected *)
  let bad = Series.Divergence.Subsequence_harmonic { index = 1; pick = (fun _ -> 2); coeff = 1.0 } in
  match Series.certify_divergence ~start:1 term ~certificate:bad ~upto:500 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-monotone pick accepted"

let test_minorant_partial () =
  let h = Series.Divergence.Harmonic { index = 1; coeff = 1.0 } in
  let m1000 = Series.Divergence.minorant_partial_sum h 1000 in
  Alcotest.(check bool) "ln lower bound" true (m1000 > 6.9 && m1000 < 7.0);
  let b = Series.Divergence.Bounded_below { index = 5; bound = 2.0 } in
  Alcotest.(check (float 1e-9)) "arithmetic" 12.0 (Series.Divergence.minorant_partial_sum b 10)

let test_geometric_tail_exact () =
  Alcotest.(check bool) "exact 2^-n/(1/2)" true
    (Q.equal (Q.of_ints 1 2) (Series.geometric_tail_exact Q.half 2));
  Alcotest.check_raises "ratio 1 rejected" (Invalid_argument "Series.geometric_tail_exact: need 0 <= r < 1")
    (fun () -> ignore (Series.geometric_tail_exact Q.one 2))

(* ------------------------------------------------------------------ *)
(* Work gate: words allocated per term at jobs=1                        *)
(* ------------------------------------------------------------------ *)

(* Gc.allocated_bytes in words, i.e. minor + major - promoted. The minor
   part is read from Gc.minor_words: OCaml 5.1's Gc.counters (and so
   Gc.allocated_bytes) undercounts the words allocated since the last
   minor collection by the word size. *)
let allocated_words_so_far () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* A pool-less, unlimited p-series sum: the inline chunk engine with its
   allocation-free fold. The bound holds for the fast arithmetic only;
   the reference path runs the instrumented loops and is not gated. *)
let test_gate_sum () =
  let name = "pool-less sum of 1/n^2.5" in
  if Ipdb_bignum.Arith.reference () then
    Printf.printf "work gate %s: not evaluated under IPDB_ARITH_REFERENCE=1\n" name
  else begin
    let terms = 200_000 and bound = 8.0 in
    let term n = 1.0 /. (float_of_int n ** 2.5) in
    let tail = Series.Tail.P_series { index = 1; coeff = 1.0; p = 2.5 } in
    let before = allocated_words_so_far () in
    ignore (Sys.opaque_identity (Series.sum_budgeted ~start:1 term ~tail ~upto:terms));
    let per_term = (allocated_words_so_far () -. before) /. float_of_int terms in
    Printf.printf "work gate %s: %.2f words/term (bound %.0f)\n" name per_term bound;
    if per_term > bound then Alcotest.failf "%s allocated %.2f words/term, bound %.0f" name per_term bound
  end

let () =
  Alcotest.run "series"
    [ ("interval-unit", [ Alcotest.test_case "basics" `Quick test_interval_basics ]);
      ("interval-props", interval_props);
      ( "convergence",
        [ Alcotest.test_case "geometric" `Quick test_geometric_sum;
          Alcotest.test_case "p-series (Basel)" `Quick test_p_series_sum;
          Alcotest.test_case "exponential" `Quick test_exponential_sum;
          Alcotest.test_case "finite support" `Quick test_finite_support;
          Alcotest.test_case "bad certificates rejected" `Quick test_certificate_rejection;
          Alcotest.test_case "exact geometric tail" `Quick test_geometric_tail_exact
        ] );
      ( "divergence",
        [ Alcotest.test_case "harmonic" `Quick test_harmonic_divergence;
          Alcotest.test_case "rejection" `Quick test_divergence_rejection;
          Alcotest.test_case "subsequence minorant" `Quick test_subsequence_divergence;
          Alcotest.test_case "minorant partial sums" `Quick test_minorant_partial
        ] );
      ("work-gate", [ Alcotest.test_case "pool-less p-series sum" `Quick test_gate_sum ])
    ]
