(** Hash-consed symbolic expressions in canonical sum-of-monomials form.

    The expression class covers everything the paper's descriptors need:
    polynomials over parameters and loop indices with rational
    coefficients and [2^e] factors ([e] itself an expression), e.g.
    [2*P*Q], [P * 2^(-L)], [J * 2^(L-1)], [(P-2) * 2^(-L) + 1].  Exact
    and floor/ceil division are supported; divisions that cannot be
    reduced are kept as opaque atoms so normalization never loses
    information.

    Normal form: a sorted list of (monomial, rational coefficient)
    pairs; a monomial is a sorted list of (atom, integer exponent)
    pairs; all [2^e] factors of a monomial are fused into a single
    [Pow2] atom whose exponent has no constant term (the constant is
    folded into the coefficient).

    Values are {e interned}: within one intern generation, structurally
    equal expressions are physically equal, so [equal] is O(1) and every
    value carries a stable structural [digest] suitable for cache keys.
    [Probe] supplies the randomized fallback for semantic equalities the
    rewrite rules cannot see. *)

type t
(** Abstract; construct via the functions below.  Every value carries a
    unique id and a precomputed structural hash. *)

(** {1 Identity} *)

val id : t -> int
(** Unique per interned value, monotonically increasing, never reused
    (even across {!intern_reset}).  Ids depend on construction history;
    never persist them - use {!digest} for stable keys. *)

val digest : t -> int
(** Precomputed structural hash: deterministic across processes and
    intern generations (depends only on the term, not on id order). *)

val equal : t -> t -> bool
(** Physical equality, with a hash-gated structural fallback that only
    fires for duplicates surviving an {!intern_reset}.  Agrees with
    {!structural_equal} on all inputs. *)

val compare : t -> t -> int
(** Total order identical to {!structural_compare} (the historical
    structural ordering), short-circuiting on physical equality. *)

val structural_equal : t -> t -> bool
val structural_compare : t -> t -> int
(** Pure structural reference implementations (no interning shortcuts);
    the qcheck suite pins [equal]/[compare] against these. *)

(** {1 Intern state} *)

val intern_size : unit -> int
(** Number of live interned expressions in the current generation. *)

val intern_reset : unit -> unit
(** Drop the intern table (pool workers call this per job so intern
    state stays bounded and history-free).  The id counter is {e not}
    reset: expressions created before the reset remain valid and compare
    correctly against post-reset values, they just lose sharing. *)

(** {1 Constructors} *)

val zero : t
val one : t
val int : int -> t
val q : Qnum.t -> t
val var : string -> t
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val scale : Qnum.t -> t -> t
val sum : t list -> t
val prod : t list -> t

val pow2 : t -> t
(** [pow2 e] is [2^e]. *)

val div : t -> t -> t
(** Exact division.  Always reduces when the divisor is a single
    monomial (negative exponents are allowed); otherwise attempts
    term-wise reduction and falls back to an opaque-division atom. *)

val floor_div : t -> t -> t
val ceil_div : t -> t -> t

(** {1 Inspection} *)

val is_zero : t -> bool

val to_q : t -> Qnum.t option
(** [Some c] iff the expression is the constant [c]. *)

val to_int : t -> int option

val const_part : t -> Qnum.t
(** Coefficient of the empty monomial. *)

val vars : t -> string list
(** All variables occurring anywhere (sorted, deduplicated). *)

val mem_var : string -> t -> bool

val linear_in : string -> t -> (t * t) option
(** [linear_in v e = Some (a, b)] when [e = a*v + b] with [v] occurring
    nowhere in [a] or [b]; [None] if [e] is non-linear in [v]. *)

(** {1 Structure}

    Read-only view of the canonical form, for lowerings that must
    reproduce {!eval} operation for operation ([Ir.Lower]). *)

type atom =
  | Var of string
  | Pow2 of t  (** [2^e] *)
  | Floor_div of t * t
  | Ceil_div of t * t
  | Opaque_div of t * t  (** exact division kept unreduced *)

val terms : t -> ((atom * int) list * Qnum.t) list
(** The monomials [(factors, coefficient)] in the order {!eval} folds
    them: [eval] starts from zero and adds, per monomial, the
    coefficient multiplied left to right by each [atom^k] (itself
    [1 * a * ... * a], or its inverse when [k < 0]). *)

val atom_value : (string -> Qnum.t) -> atom -> Qnum.t
(** The value {!eval} gives one atom (before exponentiation). *)

(** {1 Transformation} *)

val subst : string -> t -> t -> t
(** [subst v by e] replaces every occurrence of variable [v] in [e]
    (including inside [Pow2] exponents and division atoms) with [by],
    then renormalizes. *)

val subst_env : (string * t) list -> t -> t

(** {1 Evaluation} *)

exception Non_integral of string
(** Raised when an integer is required (a [Pow2] exponent or a final
    [eval_int]) but the value is fractional. *)

val eval : (string -> Qnum.t) -> t -> Qnum.t
(** @raise Non_integral if a [Pow2] exponent evaluates to a non-integer.
    @raise Not_found if a variable is unbound. *)

val eval_int : (string -> Qnum.t) -> t -> int
(** @raise Non_integral if the result is fractional. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
