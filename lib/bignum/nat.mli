(** Arbitrary-precision natural numbers.

    Values are immutable. The representation is a little-endian array of
    30-bit limbs with no trailing zero limb; zero is the empty array. All
    operations are total unless documented otherwise.

    This module exists because the sealed build environment has no [zarith];
    exact rational probabilities (products of many marginals, [2^(-i*i)], …)
    require arbitrary precision. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val two : t
val ten : t

(** {1 Construction and destruction} *)

val of_int : int -> t
(** [of_int n] is the natural number [n]. @raise Invalid_argument if [n < 0]. *)

val to_int_opt : t -> int option
(** [to_int_opt a] is [Some n] when [a] fits in an OCaml [int]. *)

val to_int_exn : t -> int
(** Like {!to_int_opt}. @raise Failure when the value does not fit. *)

val of_string : string -> t
(** [of_string s] parses a decimal numeral (optional [_] separators).
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal numeral of the value. *)

val to_float : t -> float
(** Nearest-double approximation; [infinity] when out of double range. *)

(** {1 Predicates and comparison} *)

val is_zero : t -> bool
val is_one : t -> bool
val is_even : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val min : t -> t -> t
val max : t -> t -> t
val hash : t -> int

(** {1 Arithmetic} *)

val add : t -> t -> t
val succ : t -> t

val sub : t -> t -> t
(** Truncated subtraction. @raise Invalid_argument if the result would be
    negative. *)

val sub_opt : t -> t -> t option
(** [sub_opt a b] is [Some (a - b)] when [b <= a] and [None] otherwise. *)

val mul : t -> t -> t
(** Karatsuba above {!karatsuba_threshold} limbs, schoolbook below (and
    always schoolbook under [IPDB_ARITH_REFERENCE=1]). *)

val mul_classical : t -> t -> t
(** Schoolbook multiplication: the reference implementation (exposed for
    differential tests and the multiplication ablation bench). *)

val mul_karatsuba : t -> t -> t
(** One forced Karatsuba split regardless of operand size (exposed so the
    differential suite can exercise the split on small operands). *)

val karatsuba_threshold : int
val mul_int : t -> int -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r] and [0 <= r < b].
    Native division when the dividend fits an int, Knuth Algorithm D
    otherwise. @raise Division_by_zero when [b] is zero. *)

val divmod_reference : t -> t -> t * t
(** {!divmod} without the native-int fast path (differential oracle). *)

val div : t -> t -> t
val rem : t -> t -> t

val pow : t -> int -> t
(** [pow a k] is [a] to the [k]-th power. @raise Invalid_argument if
    [k < 0]. *)

val gcd : t -> t -> t
(** Greatest common divisor; [gcd 0 a = a]. Lehmer's algorithm: each
    round runs Euclid on the leading 60 bits with single-precision
    cofactors (at most 2^29) and applies them to both full operands in one
    linear pass; a single {!rem} step is taken when the operands differ in
    size by more than a limb or no quotient can be certified. Native
    Euclid once both operands fit an int; {!gcd_reference} under
    [IPDB_ARITH_REFERENCE=1]. *)

val gcd_reference : t -> t -> t
(** Limb-loop Euclid with no native-int shortcut (differential oracle). *)

(** {1 Bit operations} *)

val shift_left : t -> int -> t
(** [shift_left a s] multiplies by [2^s]. @raise Invalid_argument if
    [s < 0]. *)

val shift_right : t -> int -> t
(** [shift_right a s] divides by [2^s], rounding toward zero. *)

val bit_length : t -> int
(** Number of significant bits; [bit_length zero = 0]. *)

(** {1 Floating-point helpers} *)

val frexp : t -> float * int
(** [frexp a] is [(m, e)] with [a = m * 2^e] approximately, and
    [0.5 <= m < 1] for nonzero [a]. Exact when [bit_length a <= 53]. *)

val pp : Format.formatter -> t -> unit
