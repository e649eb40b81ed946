(** Lowering of subscripts, loop bounds and flat addresses to integer
    closures over a slot file.

    This is the one lowering of phase expressions to executable form:
    the enumeration oracle ({!Enumerate}) walks phases through it and
    the code generator ([Codegen.Compile]) builds its sweeps from it.
    A scope maps each enclosing loop variable to its cell of the slot
    file; program parameters come from the environment.

    Exactness: a lowered closure returns what [Env.eval] returns under
    the environment extended with the slot values, and raises what it
    raises ([Qnum.Overflow], [Expr.Non_integral], [Env.Unbound], ...).
    Lowering itself never raises: a term that cannot be built fails
    when its closure first runs, at the same event as the evaluation it
    replaces. *)

open Symbolic

type shape = Const of int | Affine of int * (int * int) list | Opaque
(** How an expression was lowered: a constant, [c0 + sum c * slot] over
    [(slot, c)] pairs (guarded by a bound on the slot magnitudes that
    keeps the checked interpretation overflow-free; outside it the
    closure interprets), or [Opaque]: interpreted on every call. *)

type scope = (string * int) list
(** Loop variable to slot, innermost binding first. *)

val expr : Env.t -> scope -> Expr.t -> shape * (int array -> int)

type ctx
(** One walk's lowering context: the program, the environment, and the
    per-array extents, evaluated once per context. *)

val context : Types.program -> Env.t -> ctx

val addr :
  ctx -> scope -> Types.array_ref -> shape list * (int array -> int)
(** The reference's flat address (column-major; the trailing extent
    never multiplies), and the shapes of its subscripts in order.  At
    run time the array's extents are evaluated first (once per context,
    at the first reference that needs them), then the subscripts left
    to right; an undeclared array raises [Not_found] and a rank
    mismatch [Invalid_argument]. *)

val depth : Types.stmt -> int
(** Loop nesting depth: the slot file size a statement needs. *)
