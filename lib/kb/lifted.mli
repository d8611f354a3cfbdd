(** Lifted (extensional) UCQ inference over a {!Store}.

    The engine evaluates a positive-existential sentence by
    inclusion–exclusion over its union terms (Pqe's UCQ normal form) and
    runs each conjunction through the Dalvi–Suciu extensional rules
    {e against the indexed store} rather than by grounding quantifiers
    over the active domain:

    - {e ground product}: distinct ground atoms are independent facts,
      so their conjunction is the product of stored marginals;
    - {e independent join}: variable-connected components of the open
      atoms touch disjoint fact sets, so components multiply;
    - {e independent project}: a root variable occurring in every atom
      of a component ranges over the candidate values read from the
      smallest supporting relation's index — values outside that support
      contribute a factor of 1 — giving
      [1 − ∏ᵥ (1 − Pr(body\[root := v\]))].

    A conjunction is {e safe} here when its open atoms are self-join-free
    with relations disjoint from its ground atoms' and every component
    (recursively) has a root. That is strictly more permissive than
    [Pqe.lifted_cq_probability]'s whole-CQ check: repeated {e ground}
    atoms of one relation are fine, which inclusion–exclusion relies on.

    An independent project has one product path: the [1 − Pr(body)]
    factors of its root candidates fill one array, evaluated in
    size-deterministic chunks on the pool (top level, past
    {!par_threshold}) or inline, and one balanced [Q.prod] multiplies
    them. Exact answers are canonical rationals, so they are independent
    of chunking, association and worker count. One budget step is
    consumed per root candidate substitution (and per Monte-Carlo
    sample), so step counts are a function of the data alone — never of
    [--jobs]. *)

module Q = Ipdb_bignum.Q
module Fo = Ipdb_logic.Fo
module Pqe = Ipdb_pdb.Pqe

type mc = { samples : int; seed : int; delta : float }
(** Monte-Carlo fallback parameters: world-sampling with a Hoeffding
    interval at confidence [1 − delta]. *)

type outcome =
  | Exact of Q.t  (** every union conjunction admitted a safe plan *)
  | Estimated of Ipdb_pdb.Estimate.estimate
      (** sampling fallback for an unsafe query; [truncation_bias = 0]
          (the store is finite), degraded sample counts on budget trips *)

val par_threshold : int
(** Root-candidate count below which a top-level independent-project
    never fans out on the pool. *)

val ucq_probability :
  ?pool:Ipdb_par.Pool.t ->
  ?budget:Ipdb_run.Budget.t ->
  Store.t ->
  Pqe.ucq ->
  (Q.t option, Ipdb_run.Error.t) result
(** Exact inclusion–exclusion. [Ok None] when some conjunction is
    unsafe or the (deduplicated) union exceeds [Pqe.max_union_terms];
    [Error] on budget exhaustion. *)

val query :
  ?pool:Ipdb_par.Pool.t ->
  ?budget:Ipdb_run.Budget.t ->
  ?mc:mc ->
  Store.t ->
  Fo.t ->
  (outcome, Ipdb_run.Error.t) result
(** Evaluate a sentence: normalise to a UCQ ([Error (Validation _)] if
    the sentence is not positive-existential), try the exact engine,
    fall back to Monte-Carlo when unsafe and [mc] was supplied
    ([Error (Validation _)] otherwise, naming the unsafe shape). *)

val independence :
  ?pool:Ipdb_par.Pool.t ->
  ?budget:Ipdb_run.Budget.t ->
  Store.t ->
  Fo.t ->
  Fo.t ->
  ((bool * Q.t * Q.t * Q.t), Ipdb_run.Error.t) result
(** Grohe–Lindner independence test: exact check of
    [Pr(Q₁ ∧ Q₂) = Pr(Q₁) · Pr(Q₂)], returning
    [(independent, p₁, p₂, p₁₂)]. The product query is the pairwise
    cross-conjunction of the two unions. Exact only — an unsafe query is
    a [Validation] error, since a sampled equality cannot certify. *)
