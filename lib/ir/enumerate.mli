(** Concrete access enumeration: the ground-truth oracle.

    Walks a phase's normalized loop nest under a concrete parameter
    environment, producing every (array, flat address, access) event in
    execution order.  Descriptor construction, coalescing, iteration
    descriptors and the locality theorems are all validated against this
    oracle in the test suite, and the DSM simulator uses it to replay
    memory traffic.

    The walk runs on the phase lowered by {!Lower} (integer closures
    over a slot file, no environment per iteration): every event, and
    every exception an evaluation raises, is the one the direct
    [Env.eval] interpretation of the nest produces, at the same event. *)

open Symbolic
open Types

type budget
(** A step allowance shared by the enumerations of one closed-form
    fallback; one step is one loop iteration or one access event. *)

val fallback_events : int
(** Default allowance of a fallback's enumerations: [2^22] steps. *)

val budget : stage:string -> array:string -> budget
(** A fresh {!fallback_events} allowance for the fallback of [stage] on
    [array] (for messages; ["every array"] for phase-level
    fallbacks). *)

val iter :
  ?budget:budget ->
  program ->
  Env.t ->
  phase ->
  f:(par:int option -> array:string -> addr:int -> access -> work:int -> unit) ->
  unit
(** [par] is the current normalized parallel-loop iteration (or [None]
    when the phase has no parallel loop or the site is outside it).
    [work] is the owning statement's abstract cost, reported once per
    statement execution on its first reference (0 on subsequent refs of
    the same statement instance).

    With [budget], a walk that takes more steps than the allowance has
    left raises [Lattice.Outside_fragment] naming the stage, array,
    allowance and phase (and counts [enum.budget_exhausted]).  Oracles
    pass no budget. *)

val addresses :
  program -> Env.t -> phase -> array:string -> (int * access) list
(** All events for one array, execution order (with duplicates). *)

val address_set : program -> Env.t -> phase -> array:string -> (int, unit) Hashtbl.t

val iteration_addresses :
  program -> Env.t -> phase -> array:string -> par:int -> (int * access) list
(** Events of one parallel iteration only. *)
