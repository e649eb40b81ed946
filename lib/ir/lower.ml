open Symbolic
open Types

type shape = Const of int | Affine of int * (int * int) list | Opaque
type scope = (string * int) list

(* The reference semantics every lowered closure reproduces: [Env.eval]
   under [env] extended with the scope's loop variables, read from the
   slot file (an inner binding shadows an outer one and any parameter
   of the same name, as [Env.add] does). *)
let interpret env (scope : scope) e slots =
  Expr.eval_int
    (fun v ->
      match List.assoc_opt v scope with
      | Some s -> Qnum.of_int slots.(s)
      | None -> Env.lookup env v)
    e

(* {1 The exact affine collapse}

   [Expr.eval] folds the canonical monomials left to right in checked
   rational arithmetic.  Collapsing them into [c0 + sum c_j * slot_j]
   changes the intermediate values, so checked arithmetic on the
   collapsed form alone would not raise where [eval] raises: with
   [(N - M) * i] the cancelled coefficient is small while [eval]'s
   partial product [N * i] overflows.  The collapse therefore also
   bounds [eval]'s own intermediates.  With integer coefficients and
   integer scope-free factors, every partial product of a monomial is at
   most [K_m * max(1, |slot|)] in magnitude, where
   [K_m = max(1,|c|) * prod max(1,|a|)^k], and every partial sum is at
   most the sum of those.  So when every slot satisfies [|slot| <= lim]
   with [lim = (max_int - K_0) / K_S] (K_0: the slot-free monomials'
   bounds, K_S: the others'), [eval] raises nothing and returns the
   collapsed value, which native arithmetic computes without overflow.
   Outside the guard the closure interprets the term instead, so
   values and exceptions are [eval]'s in every case. *)

exception Outside

let magnitude x = if x = min_int then raise Outside else max 1 (abs x)

type collapsed = {
  c0 : int;
  coeffs : (int * int) list;  (** [(slot, c)], slot ascending, c <> 0 *)
  guard : int list;  (** every slot that occurs, ascending *)
  lim : int;
}

let collapse env (scope : scope) e =
  let open Lattice.Safe in
  let c0 = ref 0 and k0 = ref 0 and ks = ref 0 and per_slot = ref [] in
  List.iter
    (fun (m, c) ->
      if not (Qnum.is_integer c) then raise Outside;
      let c = Qnum.to_int c in
      let v = ref c and k = ref (magnitude c) and slot = ref None in
      List.iter
        (fun (a, n) ->
          match a with
          | Expr.Var x when List.mem_assoc x scope ->
              if n <> 1 || !slot <> None then raise Outside;
              slot := Some (List.assoc x scope)
          | _ ->
              if n < 1 then raise Outside;
              let q =
                Expr.atom_value
                  (fun x ->
                    if List.mem_assoc x scope then raise Outside
                    else Env.lookup env x)
                  a
              in
              if not (Qnum.is_integer q) then raise Outside;
              let x = Qnum.to_int q in
              for _ = 1 to n do
                v := mul !v x;
                k := mul !k (magnitude x)
              done)
        m;
      match !slot with
      | None ->
          c0 := add !c0 !v;
          k0 := add !k0 !k
      | Some s ->
          let prev = Option.value ~default:0 (List.assoc_opt s !per_slot) in
          per_slot := (s, add prev !v) :: List.remove_assoc s !per_slot;
          ks := add !ks !k)
    (Expr.terms e);
  let per_slot = List.sort compare !per_slot in
  {
    c0 = !c0;
    coeffs = List.filter (fun (_, c) -> c <> 0) per_slot;
    guard = List.map fst per_slot;
    lim = (if !ks = 0 then max_int else (max_int - !k0) / !ks);
  }

let expr env (scope : scope) e =
  let interp = interpret env scope e in
  match collapse env scope e with
  | exception
      ( Outside | Lattice.Overflow | Qnum.Overflow | Qnum.Division_by_zero
      | Division_by_zero | Env.Unbound _ | Expr.Non_integral _ ) ->
      (Opaque, interp)
  | { lim; _ } when lim < 1 -> (Opaque, interp)
  | { c0; guard = []; _ } -> (Const c0, fun _ -> c0)
  | { c0; coeffs; guard; lim } ->
      let ok x = x <= lim && x >= -lim in
      let f =
        match (coeffs, guard) with
        | [ (s1, c1) ], [ g ] when s1 = g ->
            fun slots ->
              let x = slots.(s1) in
              if ok x then c0 + (c1 * x) else interp slots
        | [ (s1, c1); (s2, c2) ], [ g1; g2 ] when s1 = g1 && s2 = g2 ->
            fun slots ->
              let x = slots.(s1) and y = slots.(s2) in
              if ok x && ok y then c0 + (c1 * x) + (c2 * y) else interp slots
        | _ ->
            fun slots ->
              if List.for_all (fun g -> ok slots.(g)) guard then
                List.fold_left (fun a (s, c) -> a + (c * slots.(s))) c0 coeffs
              else interp slots
      in
      (Affine (c0, coeffs), f)

(* {1 Addresses}

   The flat address of a reference, column-major with the trailing
   extent never multiplying.  The extents of an array are evaluated at
   the first executed reference to it and kept for the rest of the
   walk; an exception there, in a subscript, or the rank check fires at
   the reference that reaches it, in that order. *)

type ctx = {
  prog : program;
  env : Env.t;
  extents : (string, int array option ref) Hashtbl.t;
}

let context prog env = { prog; env; extents = Hashtbl.create 8 }

let addr cx (scope : scope) (r : array_ref) =
  let lowered = List.map (expr cx.env scope) r.index in
  let shapes = List.map fst lowered and idx = List.map snd lowered in
  match array_decl cx.prog r.array with
  | exception Not_found -> (shapes, fun _ -> raise Not_found)
  | decl ->
      let rest_rev = match List.rev decl.dims with [] -> [] | _ :: r -> r in
      let cell =
        match Hashtbl.find_opt cx.extents r.array with
        | Some c -> c
        | None ->
            let c = ref None in
            Hashtbl.add cx.extents r.array c;
            c
      in
      let dims = List.map (fun d -> (d, snd (expr cx.env scope d))) rest_rev in
      let compute slots =
        Array.of_list (List.rev (List.map (fun (_, f) -> f slots) dims))
      in
      (* extents that mention no loop variable evaluate the same at
         every reference; settle them now when they evaluate at all *)
      (if
         !cell = None
         && List.for_all
              (fun (d, _) ->
                List.for_all (fun v -> not (List.mem_assoc v scope)) (Expr.vars d))
              dims
       then
         match compute [||] with
         | m -> cell := Some m
         | exception
             ( Qnum.Overflow | Qnum.Division_by_zero | Division_by_zero
             | Env.Unbound _ | Expr.Non_integral _ ) ->
             ());
      let mults slots =
        match !cell with
        | Some m -> m
        | None ->
            let m = compute slots in
            cell := Some m;
            m
      in
      let f =
        if List.length idx <> List.length decl.dims then fun slots ->
          ignore (mults slots);
          List.iter (fun i -> ignore (i slots)) idx;
          invalid_arg "rank mismatch"
        else
          match idx with
          | [] -> fun _ -> 0
          | [ i0 ] -> i0 (* no extent to evaluate *)
          | [ i0; i1 ] ->
              fun slots ->
                let m = mults slots in
                let x0 = i0 slots in
                let x1 = i1 slots in
                x0 + (m.(0) * x1)
          | _ ->
              let idx = Array.of_list idx in
              fun slots ->
                let m = mults slots in
                let xs = Array.map (fun i -> i slots) idx in
                let n = Array.length xs in
                let a = ref xs.(n - 1) in
                for j = n - 2 downto 0 do
                  a := xs.(j) + (m.(j) * !a)
                done;
                !a
      in
      (shapes, f)

let rec depth = function
  | Assign _ -> 0
  | Loop l -> 1 + List.fold_left (fun a s -> max a (depth s)) 0 l.body
