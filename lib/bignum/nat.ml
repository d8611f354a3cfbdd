(* Little-endian arrays of 30-bit limbs, no trailing zero limb, zero = [||].
   Limb products fit OCaml's 63-bit ints: (2^30-1)^2 + 2*(2^30-1) < 2^61. *)

type t = int array

let base_bits = 30
let base = 1 lsl base_bits
let mask = base - 1

let zero : t = [||]
let is_zero a = Array.length a = 0

let normalize (a : t) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative argument";
  let rec limbs n acc = if n = 0 then List.rev acc else limbs (n lsr base_bits) ((n land mask) :: acc) in
  Array.of_list (limbs n [])

let one = of_int 1
let two = of_int 2
let ten = of_int 10
let is_one a = Array.length a = 1 && a.(0) = 1
let is_even a = Array.length a = 0 || a.(0) land 1 = 0

let to_int_opt a =
  (* An OCaml int holds 62 bits, i.e. at most three limbs partially. *)
  let l = Array.length a in
  if l = 0 then Some 0
  else if l = 1 then Some a.(0)
  else if l = 2 then Some (a.(0) lor (a.(1) lsl base_bits))
  else if l = 3 && a.(2) < 4 then Some (a.(0) lor (a.(1) lsl base_bits) lor (a.(2) lsl (2 * base_bits)))
  else None

let to_int_exn a =
  match to_int_opt a with Some n -> n | None -> failwith "Nat.to_int_exn: value too large"

let equal (a : t) b = a = b

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let hash (a : t) = Hashtbl.hash a

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let lr = Stdlib.max la lb + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  normalize r

let succ a = add a one

let sub_opt (a : t) (b : t) : t option =
  if compare a b < 0 then None
  else begin
    let la = Array.length a and lb = Array.length b in
    let r = Array.make la 0 in
    let borrow = ref 0 in
    for i = 0 to la - 1 do
      let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
      if s < 0 then begin
        r.(i) <- s + base;
        borrow := 1
      end
      else begin
        r.(i) <- s;
        borrow := 0
      end
    done;
    assert (!borrow = 0);
    Some (normalize r)
  end

let sub a b =
  match sub_opt a b with Some r -> r | None -> invalid_arg "Nat.sub: negative result"

let mul_classical (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let cur = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- cur land mask;
        carry := cur lsr base_bits
      done;
      r.(i + lb) <- r.(i + lb) + !carry
    done;
    normalize r
  end

(* The crossover where three half-size products beat one quadratic pass.
   Measured on the 30-bit limb representation; far below the old 512-limb
   setting, which never fired on realistic operands. *)
let karatsuba_threshold = 24

(* Split at [m] limbs: a = hi * B^m + lo. *)
let split_at m (a : t) =
  let la = Array.length a in
  if la <= m then (a, zero)
  else (normalize (Array.sub a 0 m), Array.sub a m (la - m))

let shift_limbs k (a : t) = if is_zero a then a else Array.append (Array.make k 0) a

let rec mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else if Stdlib.min la lb < karatsuba_threshold || Arith.reference () then mul_classical a b
  else begin
    (* Karatsuba: three half-size products instead of four. *)
    let m = Stdlib.max la lb / 2 in
    let a0, a1 = split_at m a in
    let b0, b1 = split_at m b in
    let z2 = mul a1 b1 in
    let z0 = mul a0 b0 in
    let z1full = mul (add a0 a1) (add b0 b1) in
    let z1 = sub (sub z1full z2) z0 in
    add (shift_limbs (2 * m) z2) (add (shift_limbs m z1) z0)
  end

(* One forced Karatsuba split regardless of size (the recursive products go
   back through [mul]). Exposed so the differential suite can drive the
   split logic on operands below the threshold. *)
let mul_karatsuba (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else if Stdlib.min la lb < 2 then mul_classical a b
  else begin
    let m = Stdlib.max la lb / 2 in
    let a0, a1 = split_at m a in
    let b0, b1 = split_at m b in
    let z2 = mul a1 b1 in
    let z0 = mul a0 b0 in
    let z1full = mul (add a0 a1) (add b0 b1) in
    let z1 = sub (sub z1full z2) z0 in
    add (shift_limbs (2 * m) z2) (add (shift_limbs m z1) z0)
  end

let mul_int a n = mul a (of_int n)

let rec nbits x acc = if x = 0 then acc else nbits (x lsr 1) (acc + 1)

let bit_length (a : t) =
  let l = Array.length a in
  if l = 0 then 0 else ((l - 1) * base_bits) + nbits a.(l - 1) 0

let shift_left (a : t) s : t =
  if s < 0 then invalid_arg "Nat.shift_left: negative shift";
  if is_zero a || s = 0 then a
  else begin
    let limb_shift = s / base_bits and bit_shift = s mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      r.(i + limb_shift) <- r.(i + limb_shift) lor (v land mask);
      r.(i + limb_shift + 1) <- v lsr base_bits
    done;
    normalize r
  end

let shift_right (a : t) s : t =
  if s < 0 then invalid_arg "Nat.shift_right: negative shift";
  let limb_shift = s / base_bits and bit_shift = s mod base_bits in
  let la = Array.length a in
  if limb_shift >= la then zero
  else begin
    let lr = la - limb_shift in
    let r = Array.make lr 0 in
    for i = 0 to lr - 1 do
      let lo = a.(i + limb_shift) lsr bit_shift in
      let hi = if bit_shift > 0 && i + limb_shift + 1 < la then (a.(i + limb_shift + 1) lsl (base_bits - bit_shift)) land mask else 0 in
      r.(i) <- lo lor hi
    done;
    normalize r
  end

(* Single-limb division: the fast path for decimal conversion. *)
let divmod_small (a : t) (d : int) : t * int =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize q, !r)

(* Knuth Algorithm D (TAOCP vol. 2, 4.3.1) for divisors of >= 2 limbs. *)
let divmod_knuth (u0 : t) (v0 : t) : t * t =
  let n = Array.length v0 in
  let m = Array.length u0 - n in
  (* Normalisation shift: make the top limb of v have its high bit set. *)
  let s =
    let rec go s t = if t >= base / 2 then s else go (s + 1) (t lsl 1) in
    go 0 v0.(n - 1)
  in
  let v =
    let v = Array.make n 0 in
    for i = 0 to n - 1 do
      let lo = (v0.(i) lsl s) land mask in
      let hi = if s > 0 && i > 0 then v0.(i - 1) lsr (base_bits - s) else 0 in
      v.(i) <- lo lor hi
    done;
    v
  in
  let u =
    let u = Array.make (m + n + 1) 0 in
    for i = 0 to m + n - 1 do
      let lo = (u0.(i) lsl s) land mask in
      let hi = if s > 0 && i > 0 then u0.(i - 1) lsr (base_bits - s) else 0 in
      u.(i) <- lo lor hi
    done;
    if s > 0 then u.(m + n) <- u0.(m + n - 1) lsr (base_bits - s);
    u
  in
  let q = Array.make (m + 1) 0 in
  let vtop = v.(n - 1) and vnext = v.(n - 2) in
  for j = m downto 0 do
    let num = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
    let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
    let continue_correct = ref true in
    while !continue_correct do
      if !qhat >= base || !qhat * vnext > (!rhat lsl base_bits) lor u.(j + n - 2) then begin
        decr qhat;
        rhat := !rhat + vtop;
        if !rhat >= base then continue_correct := false
      end
      else continue_correct := false
    done;
    (* Multiply and subtract. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v.(i)) + !carry in
      carry := p lsr base_bits;
      let t = u.(j + i) - (p land mask) - !borrow in
      if t < 0 then begin
        u.(j + i) <- t + base;
        borrow := 1
      end
      else begin
        u.(j + i) <- t;
        borrow := 0
      end
    done;
    let t = u.(j + n) - !carry - !borrow in
    if t < 0 then begin
      (* qhat was one too large: add back. *)
      u.(j + n) <- t + base;
      decr qhat;
      let carry2 = ref 0 in
      for i = 0 to n - 1 do
        let sum = u.(j + i) + v.(i) + !carry2 in
        u.(j + i) <- sum land mask;
        carry2 := sum lsr base_bits
      done;
      u.(j + n) <- (u.(j + n) + !carry2) land mask
    end
    else u.(j + n) <- t;
    q.(j) <- !qhat
  done;
  let r = normalize (Array.sub u 0 n) in
  (normalize q, shift_right r s)

let divmod_reference (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_small a b.(0) in
    (q, of_int r)
  end
  else divmod_knuth a b

let divmod (a : t) (b : t) : t * t =
  (* Native-int fast path: if the dividend fits an OCaml int so does the
     divisor (b <= a on the nontrivial branch), and machine division is
     exact on naturals. *)
  if Arith.reference () then divmod_reference a b
  else begin
    match to_int_opt a with
    | Some ai -> (
      match to_int_opt b with
      | Some 0 -> raise Division_by_zero
      | Some bi -> (of_int (ai / bi), of_int (ai mod bi))
      | None -> (zero, a) (* b has more limbs than a, so a < b *))
    | None -> divmod_reference a b
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let pow a k =
  if k < 0 then invalid_arg "Nat.pow: negative exponent";
  let rec go acc a k = if k = 0 then acc else go (if k land 1 = 1 then mul acc a else acc) (mul a a) (k lsr 1) in
  go one a k

let rec gcd_reference a b = if is_zero b then a else gcd_reference b (rem a b)

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* Lehmer's GCD (Knuth, TAOCP vol. 2, 4.5.2, Algorithm L). Each round runs
   Euclid on the leading 60 bits of u >= v with single-precision cofactors
   (a, b; c, d), then applies them to both full operands at once:
   u, v <- a*u + b*v, c*u + d*v. Cofactors are capped at 2^29, so every
   limb combination x*u_i + y*v_i + carry stays below 2^61. *)
let lehmer_cap = 1 lsl 29

(* Bits [k, k + 60) of the [n]-limb buffer [u], where k = 30(n-1) + hb - 60
   (n >= 3, hb = bit length of the top limb of the larger operand). *)
let top60 (u : t) n hb = (u.(n - 1) lsl (60 - hb)) lor (u.(n - 2) lsl (30 - hb)) lor (u.(n - 3) lsr hb)

(* Euclid on the leading bits [uh], [vh]. With u' = a*u + b*v and
   v' = c*u + d*v, the true quotient u'/v' lies strictly between
   (uh + a)/(vh + c) and (uh + b)/(vh + d) (the cofactor signs alternate),
   so a step is exact when both floors agree. Stops at the first quotient
   that is not certified or would push a cofactor past the cap, leaving
   the cofactors in [cof]; false when no step was taken. *)
let rec lehmer_steps (cof : int array) uh vh a b c d =
  let dc = vh + c and dd = vh + d in
  let q = if dc > 0 && dd > 0 then (uh + a) / dc else 0 in
  let certified = q > 0 && q <= lehmer_cap && q = (uh + b) / dd in
  let c' = a - (q * c) and d' = b - (q * d) in
  if certified && Stdlib.abs c' <= lehmer_cap && Stdlib.abs d' <= lehmer_cap then
    lehmer_steps cof vh (uh - (q * vh)) c d c' d'
  else begin
    cof.(0) <- a;
    cof.(1) <- b;
    cof.(2) <- c;
    cof.(3) <- d;
    b <> 0
  end

(* u, v <- a*u + b*v, c*u + d*v over the low [n] limbs, in place. Both
   results are nonnegative remainders below u, so the carries end at 0. *)
let lehmer_apply (u : t) (v : t) n a b c d =
  let cu = ref 0 and cv = ref 0 in
  for i = 0 to n - 1 do
    let x = u.(i) and y = v.(i) in
    let s = (a * x) + (b * y) + !cu and r = (c * x) + (d * y) + !cv in
    u.(i) <- s land mask;
    cu := s asr base_bits;
    v.(i) <- r land mask;
    cv := r asr base_bits
  done;
  assert (!cu = 0 && !cv = 0)

let rec top_length (u : t) n = if n > 0 && u.(n - 1) = 0 then top_length u (n - 1) else n
let low_int (u : t) n = if n = 0 then 0 else if n = 1 then u.(0) else u.(0) lor (u.(1) lsl base_bits)

(* gcd of u >= v > 0 on two mutable buffers of u's length, zero above each
   operand's length [nu], [nv]. A single [rem] step replaces a round when
   v is more than one limb shorter than u or no quotient is certified. *)
let gcd_lehmer (u0 : t) (v0 : t) : t =
  let n0 = Array.length u0 in
  let u = Array.copy u0 and v = Array.make n0 0 in
  Array.blit v0 0 v 0 (Array.length v0);
  let cof = Array.make 4 0 in
  let rec go u nu v nv =
    if nv = 0 then Array.sub u 0 nu
    else if nu <= 2 then of_int (gcd_int (low_int u nu) (low_int v nv))
    else begin
      let hb = nbits u.(nu - 1) 0 in
      if nv >= nu - 1 && lehmer_steps cof (top60 u nu hb) (top60 v nu hb) 1 0 0 1 then begin
        lehmer_apply u v nu cof.(0) cof.(1) cof.(2) cof.(3);
        go u (top_length u nu) v (top_length v nu)
      end
      else begin
        let r = rem (Array.sub u 0 nu) (Array.sub v 0 nv) in
        let nr = Array.length r in
        Array.blit r 0 u 0 nr;
        Array.fill u nr (nu - nr) 0;
        go v nv u nr
      end
    end
  in
  go u n0 v (Array.length v0)

let rec gcd a b =
  (* Native Euclid once both operands fit an int; a first [rem] when their
     sizes differ by more than a limb, so the buffers are only copied for
     balanced operands. *)
  if Arith.reference () then gcd_reference a b
  else begin
    match (to_int_opt a, to_int_opt b) with
    | Some ai, Some bi -> of_int (gcd_int ai bi)
    | _ ->
      let u, v = if compare a b >= 0 then (a, b) else (b, a) in
      if is_zero v then u
      else if Array.length u > Array.length v + 1 then gcd v (rem u v)
      else gcd_lehmer u v
  end

let to_string (a : t) =
  if is_zero a then "0"
  else begin
    (* Convert in chunks of 9 decimal digits via single-limb-style division. *)
    let chunk = 1_000_000_000 in
    let rec go a acc =
      if is_zero a then acc
      else begin
        (* divide by 10^9: 10^9 needs two limbs in base 2^30, use divmod. *)
        let q, r = divmod a (of_int chunk) in
        go q (to_int_exn r :: acc)
      end
    in
    match go a [] with
    | [] -> "0"
    | first :: rest ->
      let buf = Buffer.create 16 in
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest;
      Buffer.contents buf
  end

let of_string s =
  let acc = ref zero in
  let digits = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' ->
        acc := add (mul_int !acc 10) (of_int (Char.code c - Char.code '0'));
        incr digits
      | '_' -> ()
      | _ -> invalid_arg "Nat.of_string: invalid character")
    s;
  if !digits = 0 then invalid_arg "Nat.of_string: empty numeral";
  !acc

let frexp (a : t) : float * int =
  let bl = bit_length a in
  if bl = 0 then (0.0, 0)
  else if bl <= 53 then begin
    let f = float_of_int (to_int_exn a) in
    let m, e = Float.frexp f in
    (m, e)
  end
  else begin
    (* Keep the top 54 bits to round reasonably. *)
    let top = shift_right a (bl - 54) in
    let f = float_of_int (to_int_exn top) in
    let m, e = Float.frexp f in
    (m, e + (bl - 54))
  end

let to_float (a : t) =
  let m, e = frexp a in
  Float.ldexp m e

let pp fmt a = Format.pp_print_string fmt (to_string a)
