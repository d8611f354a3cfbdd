(* Tests for the arbitrary-precision arithmetic substrate. The Knuth
   Algorithm D division is the riskiest code in the repository, so it gets
   both targeted unit tests and heavy property coverage. *)

module Nat = Ipdb_bignum.Nat
module Zint = Ipdb_bignum.Zint
module Q = Ipdb_bignum.Q

let nat = Alcotest.testable Nat.pp Nat.equal
let zint = Alcotest.testable Zint.pp Zint.equal
let q = Alcotest.testable Q.pp Q.equal

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_digits max_len =
  QCheck.Gen.(
    let* len = 1 -- max_len in
    let* first = char_range '1' '9' in
    let* rest = string_size ~gen:(char_range '0' '9') (return (len - 1)) in
    return (String.make 1 first ^ rest))

let arb_nat_big =
  QCheck.make ~print:Nat.to_string
    QCheck.Gen.(
      frequency
        [ (1, return Nat.zero);
          (3, map Nat.of_int (0 -- 1000));
          (6, map Nat.of_string (gen_digits 60))
        ])

let arb_nat_pos =
  QCheck.make ~print:Nat.to_string
    QCheck.Gen.(
      frequency [ (3, map Nat.of_int (1 -- 1000)); (6, map Nat.of_string (gen_digits 45)) ])

let arb_zint =
  QCheck.make ~print:Zint.to_string
    QCheck.Gen.(
      let* neg = bool in
      let* s = gen_digits 40 in
      return (Zint.of_string (if neg then "-" ^ s else s)))

let arb_q =
  QCheck.make ~print:Q.to_string
    QCheck.Gen.(
      let* nneg = bool in
      let* n = gen_digits 25 in
      let* d = gen_digits 25 in
      return (Q.make (Zint.of_string (if nneg then "-" ^ n else n)) (Zint.of_string d)))

let prop ?(count = 500) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* ------------------------------------------------------------------ *)
(* Nat unit tests                                                      *)
(* ------------------------------------------------------------------ *)

let test_nat_basics () =
  Alcotest.(check string) "zero" "0" (Nat.to_string Nat.zero);
  Alcotest.(check string) "42" "42" (Nat.to_string (Nat.of_int 42));
  Alcotest.(check nat) "roundtrip max_int" (Nat.of_int max_int) (Nat.of_string (string_of_int max_int));
  Alcotest.(check (option int)) "to_int_opt small" (Some 123) (Nat.to_int_opt (Nat.of_int 123));
  Alcotest.(check (option int)) "to_int_opt max" (Some max_int) (Nat.to_int_opt (Nat.of_int max_int));
  Alcotest.(check (option int))
    "to_int_opt too large" None
    (Nat.to_int_opt (Nat.mul (Nat.of_int max_int) (Nat.of_int 2)))

let test_nat_string_roundtrip () =
  let s = "123456789012345678901234567890123456789012345678901234567890" in
  Alcotest.(check string) "60 digits" s (Nat.to_string (Nat.of_string s));
  Alcotest.(check string) "underscores" "1000000" (Nat.to_string (Nat.of_string "1_000_000"))

let test_nat_add_sub () =
  let a = Nat.of_string "99999999999999999999999999999999" in
  let b = Nat.of_string "1" in
  Alcotest.(check string) "carry chain" "100000000000000000000000000000000" (Nat.to_string (Nat.add a b));
  Alcotest.(check nat) "sub inverse" a (Nat.sub (Nat.add a b) b);
  Alcotest.check_raises "negative sub" (Invalid_argument "Nat.sub: negative result") (fun () ->
      ignore (Nat.sub b a))

let test_nat_mul () =
  let a = Nat.of_string "123456789123456789" in
  let b = Nat.of_string "987654321987654321" in
  Alcotest.(check string) "big product" "121932631356500531347203169112635269" (Nat.to_string (Nat.mul a b));
  Alcotest.(check nat) "mul zero" Nat.zero (Nat.mul a Nat.zero);
  Alcotest.(check nat) "mul one" a (Nat.mul a Nat.one)

let test_nat_divmod_known () =
  let check_div sa sb sq sr =
    let a = Nat.of_string sa and b = Nat.of_string sb in
    let qv, r = Nat.divmod a b in
    Alcotest.(check string) (sa ^ " div " ^ sb) sq (Nat.to_string qv);
    Alcotest.(check string) (sa ^ " mod " ^ sb) sr (Nat.to_string r)
  in
  check_div "100" "7" "14" "2";
  check_div "121932631356500531347203169112635269" "123456789123456789" "987654321987654321" "0";
  check_div "1000000000000000000000000000000000000000001" "999999999999999999999"
    "1000000000000000000001" "2";
  (* Exercises the rare add-back branch territory: divisor just above a
     power of the base. *)
  check_div "1152921504606846976" "1073741825" "1073741823" "1";
  Alcotest.check_raises "div by zero" Division_by_zero (fun () -> ignore (Nat.divmod Nat.one Nat.zero))

let test_nat_pow_gcd () =
  Alcotest.(check string) "2^100" "1267650600228229401496703205376" (Nat.to_string (Nat.pow Nat.two 100));
  Alcotest.(check nat) "gcd" (Nat.of_int 6) (Nat.gcd (Nat.of_int 54) (Nat.of_int 24));
  Alcotest.(check nat) "gcd with zero" (Nat.of_int 7) (Nat.gcd Nat.zero (Nat.of_int 7));
  Alcotest.(check nat) "gcd big" (Nat.pow Nat.two 50)
    (Nat.gcd (Nat.pow Nat.two 50) (Nat.pow Nat.two 77))

let test_nat_shifts () =
  let a = Nat.of_string "123456789012345678901234567890" in
  Alcotest.(check nat) "shift roundtrip" a (Nat.shift_right (Nat.shift_left a 91) 91);
  Alcotest.(check nat) "shl = mul 2^k" (Nat.mul a (Nat.pow Nat.two 37)) (Nat.shift_left a 37);
  Alcotest.(check nat) "shr = div 2^k" (Nat.div a (Nat.pow Nat.two 37)) (Nat.shift_right a 37);
  Alcotest.(check int) "bit_length 0" 0 (Nat.bit_length Nat.zero);
  Alcotest.(check int) "bit_length 1" 1 (Nat.bit_length Nat.one);
  Alcotest.(check int) "bit_length 2^100" 101 (Nat.bit_length (Nat.pow Nat.two 100))

let test_nat_to_float () =
  Alcotest.(check (float 1e-9)) "small" 12345.0 (Nat.to_float (Nat.of_int 12345));
  let big = Nat.pow Nat.two 80 in
  Alcotest.(check (float 1e6)) "2^80" (Float.ldexp 1.0 80) (Nat.to_float big)

(* ------------------------------------------------------------------ *)
(* Nat properties                                                      *)
(* ------------------------------------------------------------------ *)

let nat_props =
  [ prop "string roundtrip" arb_nat_big (fun a -> Nat.equal a (Nat.of_string (Nat.to_string a)));
    prop "add commutative" (QCheck.pair arb_nat_big arb_nat_big) (fun (a, b) ->
        Nat.equal (Nat.add a b) (Nat.add b a));
    prop "add associative" (QCheck.triple arb_nat_big arb_nat_big arb_nat_big) (fun (a, b, c) ->
        Nat.equal (Nat.add a (Nat.add b c)) (Nat.add (Nat.add a b) c));
    prop "mul commutative" (QCheck.pair arb_nat_big arb_nat_big) (fun (a, b) ->
        Nat.equal (Nat.mul a b) (Nat.mul b a));
    prop "mul associative" (QCheck.triple arb_nat_big arb_nat_big arb_nat_big) (fun (a, b, c) ->
        Nat.equal (Nat.mul a (Nat.mul b c)) (Nat.mul (Nat.mul a b) c));
    prop "distributivity" (QCheck.triple arb_nat_big arb_nat_big arb_nat_big) (fun (a, b, c) ->
        Nat.equal (Nat.mul a (Nat.add b c)) (Nat.add (Nat.mul a b) (Nat.mul a c)));
    prop ~count:2000 "divmod invariant" (QCheck.pair arb_nat_big arb_nat_pos) (fun (a, b) ->
        let qv, r = Nat.divmod a b in
        Nat.equal a (Nat.add (Nat.mul qv b) r) && Nat.compare r b < 0);
    prop "sub inverse of add" (QCheck.pair arb_nat_big arb_nat_big) (fun (a, b) ->
        Nat.equal a (Nat.sub (Nat.add a b) b));
    prop "gcd divides" (QCheck.pair arb_nat_pos arb_nat_pos) (fun (a, b) ->
        let g = Nat.gcd a b in
        Nat.is_zero (Nat.rem a g) && Nat.is_zero (Nat.rem b g));
    prop "gcd scaling" (QCheck.triple arb_nat_pos arb_nat_pos arb_nat_pos) (fun (a, b, c) ->
        Nat.equal (Nat.gcd (Nat.mul a c) (Nat.mul b c)) (Nat.mul (Nat.gcd a b) c));
    prop "compare total order vs sub" (QCheck.pair arb_nat_big arb_nat_big) (fun (a, b) ->
        match Nat.compare a b with
        | 0 -> Nat.equal a b
        | c when c < 0 -> Nat.sub_opt a b = None
        | _ -> Nat.sub_opt a b <> None);
    prop "shift roundtrip" (QCheck.pair arb_nat_big QCheck.(0 -- 120)) (fun (a, s) ->
        Nat.equal a (Nat.shift_right (Nat.shift_left a s) s));
    prop "pow homomorphism" (QCheck.triple arb_nat_pos QCheck.(0 -- 8) QCheck.(0 -- 8))
      (fun (a, i, j) -> Nat.equal (Nat.pow a (i + j)) (Nat.mul (Nat.pow a i) (Nat.pow a j)));
    (let arb_huge =
       QCheck.make ~print:Nat.to_string
         QCheck.Gen.(map Nat.of_string (gen_digits 700))
     in
     prop ~count:100 "karatsuba = schoolbook on huge inputs" (QCheck.pair arb_huge arb_huge)
       (fun (a, b) -> Nat.equal (Nat.mul a b) (Nat.mul_classical a b)))
  ]

(* ------------------------------------------------------------------ *)
(* Zint                                                                *)
(* ------------------------------------------------------------------ *)

let test_zint_basics () =
  Alcotest.(check zint) "neg neg" (Zint.of_int 5) (Zint.neg (Zint.neg (Zint.of_int 5)));
  Alcotest.(check int) "sign -" (-1) (Zint.sign (Zint.of_int (-3)));
  Alcotest.(check int) "sign 0" 0 (Zint.sign Zint.zero);
  Alcotest.(check zint) "of_string neg" (Zint.of_int (-42)) (Zint.of_string "-42");
  Alcotest.(check string) "to_string neg" "-42" (Zint.to_string (Zint.of_int (-42)));
  Alcotest.(check zint) "structural zero" Zint.zero (Zint.sub (Zint.of_int 7) (Zint.of_int 7))

let test_zint_divmod () =
  (* Euclidean division: remainder always non-negative. *)
  let check a b eq er =
    let qv, r = Zint.divmod (Zint.of_int a) (Zint.of_int b) in
    Alcotest.(check zint) (Printf.sprintf "%d divmod %d q" a b) (Zint.of_int eq) qv;
    Alcotest.(check zint) (Printf.sprintf "%d divmod %d r" a b) (Zint.of_int er) r
  in
  check 7 2 3 1;
  check (-7) 2 (-4) 1;
  check 7 (-2) (-3) 1;
  check (-7) (-2) 4 1;
  check 6 3 2 0;
  check (-6) 3 (-2) 0

let zint_props =
  [ prop "add commutative" (QCheck.pair arb_zint arb_zint) (fun (a, b) ->
        Zint.equal (Zint.add a b) (Zint.add b a));
    prop "add neg inverse" arb_zint (fun a -> Zint.is_zero (Zint.add a (Zint.neg a)));
    prop "mul sign" (QCheck.pair arb_zint arb_zint) (fun (a, b) ->
        Zint.sign (Zint.mul a b) = Zint.sign a * Zint.sign b);
    prop "distributivity" (QCheck.triple arb_zint arb_zint arb_zint) (fun (a, b, c) ->
        Zint.equal (Zint.mul a (Zint.add b c)) (Zint.add (Zint.mul a b) (Zint.mul a c)));
    prop ~count:2000 "euclidean divmod" (QCheck.pair arb_zint arb_zint) (fun (a, b) ->
        QCheck.assume (not (Zint.is_zero b));
        let qv, r = Zint.divmod a b in
        Zint.equal a (Zint.add (Zint.mul qv b) r)
        && Zint.sign r >= 0
        && Zint.compare r (Zint.abs b) < 0);
    prop "string roundtrip" arb_zint (fun a -> Zint.equal a (Zint.of_string (Zint.to_string a)));
    prop "compare antisymmetric" (QCheck.pair arb_zint arb_zint) (fun (a, b) ->
        Zint.compare a b = -Zint.compare b a)
  ]

(* ------------------------------------------------------------------ *)
(* Q                                                                   *)
(* ------------------------------------------------------------------ *)

let test_q_basics () =
  Alcotest.(check q) "normalisation" (Q.of_ints 1 2) (Q.of_ints 17 34);
  Alcotest.(check q) "neg den" (Q.of_ints (-1) 2) (Q.of_ints 1 (-2));
  Alcotest.(check string) "to_string" "3/4" (Q.to_string (Q.of_ints 3 4));
  Alcotest.(check string) "integer to_string" "5" (Q.to_string (Q.of_ints 10 2));
  Alcotest.(check q) "of_string frac" (Q.of_ints 22 7) (Q.of_string "22/7");
  Alcotest.(check q) "of_string decimal" (Q.of_ints 5 4) (Q.of_string "1.25");
  Alcotest.(check q) "of_string neg decimal" (Q.of_ints (-5) 4) (Q.of_string "-1.25");
  Alcotest.check_raises "zero den" Division_by_zero (fun () -> ignore (Q.of_ints 1 0))

let test_q_arith () =
  let open Q.Infix in
  Alcotest.(check q) "1/2+1/3" (Q.of_ints 5 6) (Q.of_ints 1 2 + Q.of_ints 1 3);
  Alcotest.(check q) "1/2*2/3" (Q.of_ints 1 3) (Q.of_ints 1 2 * Q.of_ints 2 3);
  Alcotest.(check q) "div" (Q.of_ints 3 2) (Q.of_ints 1 2 / Q.of_ints 1 3);
  Alcotest.(check q) "pow neg" (Q.of_ints 9 4) (Q.pow (Q.of_ints 2 3) (-2));
  Alcotest.(check q) "one_minus" (Q.of_ints 2 3) (Q.one_minus (Q.of_ints 1 3));
  Alcotest.(check bool) "prob yes" true (Q.is_probability (Q.of_ints 3 4));
  Alcotest.(check bool) "prob no" false (Q.is_probability (Q.of_ints 5 4));
  Alcotest.(check q) "sum" (Q.of_int 2) (Q.sum [ Q.of_ints 1 2; Q.of_ints 3 2 ]);
  Alcotest.(check q) "prod" (Q.of_ints 3 8) (Q.prod [ Q.of_ints 1 2; Q.of_ints 3 4 ])

let test_q_decimal () =
  Alcotest.(check string) "1/8" "0.125000" (Q.to_decimal_string ~digits:6 (Q.of_ints 1 8));
  Alcotest.(check string) "-1/3" "-0.333333" (Q.to_decimal_string ~digits:6 (Q.of_ints (-1) 3))

let test_q_float () =
  Alcotest.(check (float 1e-12)) "3/4" 0.75 (Q.to_float (Q.of_ints 3 4));
  Alcotest.(check (float 1e-12)) "neg" (-0.2) (Q.to_float (Q.of_ints (-1) 5));
  (* Huge but balanced fraction must not become nan. *)
  let huge = Q.make (Zint.of_string (String.make 400 '9')) (Zint.of_string (String.make 400 '3')) in
  Alcotest.(check (float 1e-6)) "huge ratio" 3.0 (Q.to_float huge);
  Alcotest.(check q) "of_float_exact 0.5" Q.half (Q.of_float_exact 0.5);
  Alcotest.(check q) "of_float_exact 3.0" (Q.of_int 3) (Q.of_float_exact 3.0)

let q_props =
  [ prop "normalised invariant" (QCheck.pair arb_q arb_q) (fun (a, b) ->
        let c = Q.add a b in
        Nat.is_one (Nat.gcd (Zint.to_nat (Q.num c)) (Q.den c)) || Zint.is_zero (Q.num c));
    prop "add commutative" (QCheck.pair arb_q arb_q) (fun (a, b) -> Q.equal (Q.add a b) (Q.add b a));
    prop "mul inverse" arb_q (fun a ->
        QCheck.assume (not (Q.is_zero a));
        Q.equal Q.one (Q.mul a (Q.inv a)));
    prop "field distributivity" (QCheck.triple arb_q arb_q arb_q) (fun (a, b, c) ->
        Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)));
    prop "sub then add" (QCheck.pair arb_q arb_q) (fun (a, b) -> Q.equal a (Q.add (Q.sub a b) b));
    prop "compare consistent with float" (QCheck.pair arb_q arb_q) (fun (a, b) ->
        let fa = Q.to_float a and fb = Q.to_float b in
        QCheck.assume (Float.abs (fa -. fb) > 1e-6 *. (1.0 +. Float.abs fa));
        (Q.compare a b < 0) = (fa < fb));
    prop "string roundtrip" arb_q (fun a -> Q.equal a (Q.of_string (Q.to_string a)));
    prop "of_float_exact roundtrip" (QCheck.float_bound_inclusive 1.0) (fun f ->
        Float.equal (Q.to_float (Q.of_float_exact f)) f);
    prop "mediant between" (QCheck.pair arb_q arb_q) (fun (a, b) ->
        QCheck.assume (Q.lt a b);
        let m = Q.mediant a b in
        (* mediant lies between only for positive denominators: always true
           here, but signs of numerators matter; just check ordering. *)
        Q.leq a m && Q.leq m b)
  ]

(* ------------------------------------------------------------------ *)
(* Work gate: allocated words of the fast paths, a deterministic proxy  *)
(* for their cost (the same inputs allocate the same words every run)   *)
(* ------------------------------------------------------------------ *)

(* Gc.allocated_bytes in words, i.e. minor + major - promoted. The minor
   part is read from Gc.minor_words: OCaml 5.1's Gc.counters (and so
   Gc.allocated_bytes) undercounts the words allocated since the last
   minor collection by the word size. *)
let allocated_words_so_far () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let allocated_words f =
  let before = allocated_words_so_far () in
  ignore (Sys.opaque_identity (f ()));
  allocated_words_so_far () -. before

(* The bounds hold for the fast arithmetic only; the reference path runs
   different algorithms and is not gated. *)
let gate name bound f () =
  if Ipdb_bignum.Arith.reference () then
    Printf.printf "work gate %s: not evaluated under IPDB_ARITH_REFERENCE=1\n" name
  else begin
    let words = allocated_words f in
    Printf.printf "work gate %s: %.0f words (bound %.0f)\n" name words bound;
    if words > bound then Alcotest.failf "%s allocated %.0f words, bound %.0f" name words bound
  end

let fibonacci k =
  let rec go a b i = if i = 0 then a else go b (Nat.add a b) (i - 1) in
  go Nat.zero Nat.one k

let test_gate_gcd () =
  let a = fibonacci 3001 and b = fibonacci 3000 in
  gate "Nat.gcd F(3001) F(3000)" 20_000. (fun () -> Nat.gcd a b) ()

(* Kb-shaped factors: each the product of 49 complements (d - n)/d of
   marginals n/d with d <= 12, like one root candidate of the kb-query
   project query. *)
let test_gate_prod () =
  let st = Random.State.make [| 0x9a7e |] in
  let factors =
    List.init 1024 (fun _ ->
        Q.prod
          (List.init 49 (fun _ ->
               let d = 2 + Random.State.int st 11 in
               Q.of_ints (d - 1 - Random.State.int st (d - 1)) d)))
  in
  gate "Q.prod of 1024 kb factors" 1_600_000. (fun () -> Q.prod factors) ()

let () =
  Alcotest.run "bignum"
    [ ( "nat-unit",
        [ Alcotest.test_case "basics" `Quick test_nat_basics;
          Alcotest.test_case "string roundtrip" `Quick test_nat_string_roundtrip;
          Alcotest.test_case "add/sub" `Quick test_nat_add_sub;
          Alcotest.test_case "mul" `Quick test_nat_mul;
          Alcotest.test_case "divmod known values" `Quick test_nat_divmod_known;
          Alcotest.test_case "pow/gcd" `Quick test_nat_pow_gcd;
          Alcotest.test_case "shifts" `Quick test_nat_shifts;
          Alcotest.test_case "to_float" `Quick test_nat_to_float
        ] );
      ("nat-props", nat_props);
      ( "zint-unit",
        [ Alcotest.test_case "basics" `Quick test_zint_basics;
          Alcotest.test_case "euclidean divmod" `Quick test_zint_divmod
        ] );
      ("zint-props", zint_props);
      ( "q-unit",
        [ Alcotest.test_case "basics" `Quick test_q_basics;
          Alcotest.test_case "arithmetic" `Quick test_q_arith;
          Alcotest.test_case "decimal printing" `Quick test_q_decimal;
          Alcotest.test_case "float conversion" `Quick test_q_float
        ] );
      ("q-props", q_props);
      ( "work-gate",
        [ Alcotest.test_case "Nat.gcd on consecutive Fibonacci numbers" `Quick test_gate_gcd;
          Alcotest.test_case "Q.prod over kb-shaped factors" `Quick test_gate_prod
        ] )
    ]
