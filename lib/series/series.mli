(** Certified infinite series.

    The paper's arguments are dominated by convergence and divergence claims:
    well-definedness of TI- and BID-PDBs (Theorems 2.4 and 2.6), finiteness of
    size moments (Propositions 3.2 and 3.4), the sufficient representability
    criterion (Theorem 5.3), and the divergence arguments of Examples 3.9 and
    5.6 and Propositions D.2/D.3. This module makes such claims checkable:

    - a {e convergence} verdict is a partial sum computed in interval
      arithmetic plus an analytic {!Tail} certificate whose hypothesis is
      validated on every computed term, and
    - a {e divergence} verdict is a {!Divergence} certificate (again validated
      on computed terms) whose minorant provably has unbounded partial sums.

    Nothing in the library ever concludes convergence from a bare partial
    sum. *)

type term = int -> float
(** A series is a function from indices to terms. Terms are evaluated in
    floating point; certificates are expected to carry enough analytic slack
    to absorb a few ulps of term error. *)

(** Analytic upper bounds on tails of non-negative series. *)
module Tail : sig
  type t =
    | Finite_support of { last : int }
        (** [a_n = 0] for all [n > last]. *)
    | Geometric of { index : int; first : float; ratio : float }
        (** [a_n <= first * ratio^(n - index)] for [n >= index], with
            [0 <= ratio < 1]. *)
    | P_series of { index : int; coeff : float; p : float }
        (** [a_n <= coeff / n^p] for [n >= index], with [p > 1]. *)
    | Exponential of { index : int; coeff : float; rate : float }
        (** [a_n <= coeff * rate^n] for [n >= index], with [0 <= rate < 1]. *)

  val start_index : t -> int
  (** First index at which the certificate's hypothesis applies
      ([min_int] for {!Finite_support}). *)

  val bound_from : t -> int -> float
  (** [bound_from cert n] is an upper bound on [sum_{k >= n} a_k], valid when
      [n] is at or past the certificate's index.
      @raise Invalid_argument when [n] precedes the certificate's index. *)

  val pp : Format.formatter -> t -> unit
end

(** Certified minorants that force divergence of non-negative series. *)
module Divergence : sig
  type t =
    | Harmonic of { index : int; coeff : float }
        (** [a_n >= coeff / n > 0] for [n >= index]. *)
    | Bounded_below of { index : int; bound : float }
        (** [a_n >= bound > 0] for [n >= index]. *)
    | Eventually_ratio_ge_one of { index : int; floor : float }
        (** [a_{n+1} >= a_n >= floor > 0] for [n >= index]: terms do not even
            tend to zero. *)
    | Subsequence_harmonic of { index : int; pick : int -> int; coeff : float }
        (** [a_{pick k} >= coeff / k] for [k >= index], with [pick] strictly
            increasing: a harmonic minorant along a subsequence (sufficient
            for divergence of a non-negative series — the Lemma 6.6
            argument, where only the strictly-growing worlds are heavy). *)

  val minorant_partial_sum : t -> int -> float
  (** Lower bound on [sum a_n] up to the given index implied by the
      certificate alone. Tends to infinity with the index. *)

  val pp : Format.formatter -> t -> unit
end

(** The outcome of a certified summation. *)
type verdict =
  | Converges of Interval.t  (** Enclosure of the full infinite sum. *)
  | Diverges of { certificate : Divergence.t; partial : float; at : int }
      (** Validated minorant plus a partial sum computed as a witness. *)

val partial_sum_interval : ?start:int -> term -> int -> Interval.t
(** [partial_sum_interval ~start f n] encloses [f start + ... + f n]: an
    interval enclosure of the float additions. *)

(** {1 The budgeted engine}

    There are two engines, one per job: {!sum_resumable} for sums and
    {!certify_divergence_resumable} for divergence checks. Every other
    entry point wraps one of them. Each engine splits the index range into
    a chunk plan and runs the chunks on a pool, or inline on the caller
    without one. A chunk evaluates each term once and validates the
    certificate's pointwise hypothesis on it; an index-ordered fold then
    accumulates the partial sum. One {!Ipdb_run.Budget} step is reserved per
    index, a chunk at a time. Exhausting the budget is not an error: it
    degrades to an {!Exhausted} value carrying the evidence accumulated so
    far. *)

(** What a budget-interrupted summation still certifies. *)
type partial = {
  enclosure : Interval.t option;
      (** Enclosure of the {e infinite} sum obtained by adding the analytic
          tail bound at the stop index: sound under exactly the same
          hypothesis as a completed run (the certificate's pointwise bound,
          here validated on [start..last] rather than the full requested
          prefix). [None] when the certificate cannot bound the tail at the
          stop index (e.g. {!Tail.Finite_support} stopped inside its
          support). *)
  prefix : Interval.t;  (** Interval enclosure of [f start + ... + f last]. *)
  last : int;  (** Last index evaluated and validated. *)
  requested : int;  (** The [upto] that was asked for. *)
  exhausted : Ipdb_run.Error.exhaustion;  (** Which limit tripped. *)
}

type budgeted =
  | Complete of Interval.t  (** Full prefix evaluated: enclosure of the infinite sum. *)
  | Exhausted of partial  (** Budget ran out first: certified partial verdict. *)

val sum_budgeted :
  ?pool:Ipdb_par.Pool.t ->
  ?chunk:int ->
  ?start:int ->
  ?budget:Ipdb_run.Budget.t ->
  term ->
  tail:Tail.t ->
  upto:int ->
  (budgeted, Ipdb_run.Error.t) result
(** Like {!sum}, under a budget. [Error] carries the typed failure: a
    rejected certificate hypothesis ([Certificate]), a term evaluation that
    raised, or an injected fault. Never raises on certificate or budget
    trouble; exceptions escaping the term function are converted to typed
    errors.

    With [?pool] the chunks run on the pool (see {!sum_resumable} for the
    determinism contract); the term function must then be safe to call
    from several domains at once (the certificate families in
    [Ipdb_core.Zoo] all are). *)

type divergence_budgeted =
  | Div_complete of { partial : float; at : int }
      (** Minorant validated on the whole requested prefix; [partial] sums
          the evaluated terms as a witness. *)
  | Div_exhausted of {
      partial : float;  (** witness partial sum over the evaluated terms *)
      minorant : float;  (** certified lower bound implied up to [last] *)
      last : int;
      requested : int;
      exhausted : Ipdb_run.Error.exhaustion;
    }

val certify_divergence_budgeted :
  ?pool:Ipdb_par.Pool.t ->
  ?chunk:int ->
  ?start:int ->
  ?budget:Ipdb_run.Budget.t ->
  term ->
  certificate:Divergence.t ->
  upto:int ->
  (divergence_budgeted, Ipdb_run.Error.t) result
(** Budgeted {!certify_divergence}: {!certify_divergence_resumable}
    without the snapshot. Each loop index consumes one budget step,
    whatever the certificate (a ratio certificate compares neighbouring
    terms but still evaluates each term once). Exhaustion degrades to
    [Div_exhausted] with the witness evidence accumulated so far, at the
    same index with or without a pool. *)

val sum : ?start:int -> term -> tail:Tail.t -> upto:int -> (Interval.t, string) result
(** Certified enclosure of the infinite sum: validates [tail] on the computed
    prefix, then adds the analytic tail bound to the partial-sum interval.
    [Error] explains which hypothesis failed. Equivalent to {!sum_budgeted}
    with an unlimited budget. *)

val sum_exn : ?start:int -> term -> tail:Tail.t -> upto:int -> Interval.t
(** @raise Failure when {!sum} returns an error. *)

val certify_divergence :
  ?start:int -> term -> certificate:Divergence.t -> upto:int -> (verdict, string) result
(** Validates the divergence certificate on the computed prefix and returns
    [Diverges] with the witness partial sum over the checked terms (for a
    subsequence certificate, the picked terms). Equivalent to
    {!certify_divergence_budgeted} with an unlimited budget. *)

(** {1 Snapshots and resumable engines}

    A {!Snapshot.t} is the exact cross-iteration state of a budgeted
    engine: the interval prefix sum (endpoints persisted as {e exact
    rationals}), the next index to evaluate, and — for divergence
    certificates — the carried term/pick context. Because both engines
    fold in index order, restarting from a snapshot replays the
    identical float operations in the identical order, so a resumed run
    produces {e bit-for-bit} the same enclosure and verdict as an
    uninterrupted one (the resume-equivalence property tests pin this
    down). Snapshots serialize to a single line, survive
    {!Ipdb_run.Checkpoint} roundtrips exactly, and deserialize with a
    typed error — never an exception. *)
module Snapshot : sig
  type sum_state = { sum_start : int; next : int; prefix : Interval.t }
  (** State of {!sum_resumable}: terms [sum_start..next-1] are folded into
      [prefix]; [next] is evaluated next. *)

  type div_state = {
    div_start : int;  (** first loop index of the certificate *)
    next_k : int;  (** next loop index to check *)
    partial : float;  (** witness partial sum over evaluated terms *)
    prev_term : float option;  (** last term (ratio certificates) *)
    prev_pick : int;  (** last picked index ([min_int] if none) *)
  }

  type t = Sum_state of sum_state | Div_state of div_state

  val to_string : t -> string
  (** Single-line encoding with exact-rational floats. *)

  val of_string : string -> (t, string) result
  (** Total inverse of {!to_string}; malformed input yields [Error]. *)

  val equal : t -> t -> bool
  (** Structural equality comparing floats by bits (NaN-safe). *)

  val encode_float : float -> string
  (** Exact encoding of any float: a rational in lowest terms, or one of
      the tokens ["nan"], ["inf"], ["-inf"], ["-0"]. *)

  val decode_float : string -> (float, string) result
  (** Bit-exact inverse of {!encode_float}. *)

  val pp : Format.formatter -> t -> unit
end

val sum_resumable :
  ?pool:Ipdb_par.Pool.t ->
  ?chunk:int ->
  ?start:int ->
  ?budget:Ipdb_run.Budget.t ->
  ?from:Snapshot.t ->
  ?progress:(Snapshot.t -> unit) ->
  ?progress_every:int ->
  term ->
  tail:Tail.t ->
  upto:int ->
  (budgeted * Snapshot.t, Ipdb_run.Error.t) result
(** {!sum_budgeted} with checkpoint/resume: [from] restarts the fold from
    a snapshot's exact state (a snapshot of a different computation is a
    typed [Validation] error); [progress] is invoked with the current
    snapshot at the first chunk boundary past each multiple of
    [progress_every] evaluated terms (default 1000). The returned snapshot
    reflects the final state — for an [Exhausted] verdict it is exactly
    the point to resume from. One-shot and interrupted-then-resumed runs
    produce bit-identical results.

    {b Chunks.} The prefix is evaluated in fixed chunks of [?chunk]
    indices. The default is {!Ipdb_par.Chunk.default_size}, lowered to
    [progress_every] when [progress] is given, so that every multiple of a
    [progress_every] up to the default size is a chunk boundary. A chunk
    evaluates its terms and validates the certificate's pointwise
    hypothesis on them; the interval fold replays the results strictly in
    index order on the calling domain. With [?pool] the chunks run on
    the pool's workers, without one they run inline on the caller. Because
    chunk boundaries depend only on [(start, upto, chunk)] and the fold
    runs in index order, the enclosure, verdict, and final snapshot of a
    {e completed} run are bit-for-bit identical with and without a pool,
    for every worker count. Budget steps are reserved per chunk, in chunk
    order, on the calling domain; a partial grant truncates the last
    chunk, so a step budget of [n] stops after exactly [n] terms, with
    the same [exhausted] value with or without a pool. Every snapshot is
    an exact fold state, so runs with and without a pool can resume each
    other freely; a resumed chain that runs to completion reproduces the
    uninterrupted enclosure exactly. Wall-clock and cancellation trips
    remain timing-dependent. *)

val certify_divergence_resumable :
  ?pool:Ipdb_par.Pool.t ->
  ?chunk:int ->
  ?start:int ->
  ?budget:Ipdb_run.Budget.t ->
  ?from:Snapshot.t ->
  ?progress:(Snapshot.t -> unit) ->
  ?progress_every:int ->
  term ->
  certificate:Divergence.t ->
  upto:int ->
  (divergence_budgeted * Snapshot.t, Ipdb_run.Error.t) result
(** Resumable divergence checking: one term evaluation and one budget step
    per loop index, whose cross-index state is a {!Snapshot.t}. Same
    resume-equivalence guarantee as {!sum_resumable}, and the same chunk
    and [?pool] contract: a chunk evaluates terms and checks the pointwise
    minorant hypotheses, while the witness fold and the cross-index checks
    (ratio decrease, pick monotonicity) replay in index order on the
    calling domain. Verdicts, witness partial sums, stop indices and
    snapshots are identical with and without a pool, for every worker
    count. *)

val geometric_tail_exact : Ipdb_bignum.Q.t -> int -> Ipdb_bignum.Q.t
(** [geometric_tail_exact r n] is the exact value [r^n / (1 - r)] of
    [sum_{k >= n} r^k] for a rational ratio [0 <= r < 1].
    @raise Invalid_argument when [r] is outside [0, 1). *)
