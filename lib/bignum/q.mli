(** Arbitrary-precision rational numbers.

    Values are kept in lowest terms with a positive denominator, so
    structural equality coincides with numeric equality. These are the exact
    probabilities used throughout the library: the paper's constructions
    (Theorems 4.1 and 5.9, Corollary 5.4, the finite completeness theorem)
    are verified as {e equalities} of distributions in this type. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val two : t
val half : t
val minus_one : t

(** {1 Construction and destruction} *)

val make : Zint.t -> Zint.t -> t
(** [make num den] is the normalised fraction [num/den].
    @raise Division_by_zero when [den] is zero. *)

val of_int : int -> t

val of_ints : int -> int -> t
(** [of_ints a b] is [a/b]. @raise Division_by_zero when [b = 0]. *)

val of_ints_reduced : int -> int -> t
(** [of_ints_reduced n d] builds [n/d] {e without} normalising, for parts
    already known coprime with [d > 0] (typically extracted from a
    normalised rational, as in the kb store's marginal columns). The
    coprimality contract is re-verified under [IPDB_ARITH_REFERENCE=1]
    so misuse fails loudly there. @raise Invalid_argument when [d <= 0]
    (or, in reference mode, when the parts share a factor). *)

val of_zint : Zint.t -> t
val of_nat : Nat.t -> t

val of_string : string -> t
(** Accepts ["a"], ["a/b"] and decimal notation ["1.25"], with optional
    sign. @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** ["num/den"], or just ["num"] for integers. *)

val to_decimal_string : ?digits:int -> t -> string
(** Decimal expansion truncated to [digits] (default 12) fractional
    digits. *)

val to_float : t -> float
val num : t -> Zint.t
val den : t -> Nat.t

val of_float_exact : float -> t
(** Exact rational value of a finite float.
    @raise Invalid_argument on NaN or infinities. *)

(** {1 Predicates and comparison} *)

val sign : t -> int
val is_zero : t -> bool
val is_one : t -> bool
val is_integer : t -> bool

val is_probability : t -> bool
(** [0 <= q <= 1]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val lt : t -> t -> bool
val leq : t -> t -> bool
val gt : t -> t -> bool
val geq : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val hash : t -> int

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero when the divisor is zero. *)

val inv : t -> t
(** @raise Division_by_zero on zero. *)

val pow : t -> int -> t
(** Integer powers, negative exponents allowed on nonzero values. *)

val one_minus : t -> t
(** [1 - q]; the complement of a probability. *)

val sum : t list -> t
(** Exact sum. In fast mode the fold runs through {!Accum} (batched GCD
    normalisation); the result is identical to the eager left fold. *)

val prod : t list -> t
(** Exact product, [one] for the empty list. In fast mode the factors are
    multiplied by balanced binary splitting, so both operands of each
    multiplication have about the same size. Because values are
    canonical, the association cannot change the result: it is the left
    fold's, bit for bit. Under [IPDB_ARITH_REFERENCE=1] it is the left
    fold of {!Reference.mul} ({!Reference.prod}). *)

val mediant : t -> t -> t
(** [(a+c)/(b+d)] for [a/b] and [c/d]; lies strictly between them. *)

(** {1 Filtered and batched helpers}

    These exist for the series/kb hot paths. Every one of them is exact:
    the float filter may only {e accelerate} a decision (falling back to
    exact cross-multiplication whenever its interval straddles the
    boundary), and the batched accumulator commits the same canonical
    rational as an eagerly normalised fold. *)

(** Certified float enclosures of rationals. [compare_opt]/[sign_opt]
    answer [Some _] only when the enclosures are disjoint from the
    decision boundary; [None] means "undecided — use exact arithmetic". *)
module Filter : sig
  type q := t
  type t = { lo : float; hi : float }

  val of_q : q -> t
  (** Sound enclosure: the exact value always lies in [[lo, hi]]. Values
      outside the comfortably-normal float range get the infinite
      interval (never a wrong answer, just no acceleration). *)

  val compare_opt : t -> t -> int option
  val sign_opt : t -> int option
end

(** Mutable partial sum with lazy, batched GCD normalisation. The
    running numerator/denominator are left unnormalised until the
    denominator outgrows an internal bit threshold; [total] performs the
    final normalisation. Under [IPDB_ARITH_REFERENCE=1] every [add]
    normalises eagerly instead. *)
module Accum : sig
  type q := t
  type t

  val create : unit -> t
  (** An accumulator holding zero. *)

  val of_q : q -> t
  val add : t -> q -> unit
  val sub : t -> q -> unit

  val total : t -> q
  (** The normalised value of the sum so far (the accumulator remains
      usable). Equal to the eagerly-normalised fold of the same
      operations, bit for bit. *)
end

(** Memoised integer powers of a fixed base, for the [∏ qᵢ] and
    [2^(-i²)] families in the zoo and the geometric tails in
    [lib/series]. Domain-safe: the table is an immutable array behind an
    [Atomic], grown by copy-and-CAS, so concurrent readers never observe
    a partial state (a lost race merely recomputes). *)
module Powtab : sig
  type q := t
  type t

  val create : q -> t
  val base : t -> q

  val pow : t -> int -> q
  (** [pow t k] is [base^k], canonical and identical to [Q.pow base k];
      negative exponents supported on nonzero bases. Memoisation is
      disabled under [IPDB_ARITH_REFERENCE=1]. *)
end

(** The eager/unfiltered reference implementations (original
    algorithms: one full-width GCD per operation, exact
    cross-multiplication compare, frexp-based float conversion). Used by
    the differential suite; [IPDB_ARITH_REFERENCE=1] forces the whole
    library onto these paths. *)
module Reference : sig
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val compare : t -> t -> int
  val sum : t list -> t

  val prod : t list -> t
  (** Left fold of {!mul} from [one]. *)

  val to_float : t -> float
end

(** {1 Operators} *)

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end

val pp : Format.formatter -> t -> unit
