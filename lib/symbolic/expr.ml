(* Hash-consed symbolic expressions.  Every [t] is interned: the [node]
   (canonical sum-of-monomials payload) lives in a global weak-ish table
   keyed by shallow structure, so within one intern generation two
   structurally equal expressions are the *same* record.  [equal] is a
   physical check with a hash-gated structural fallback (the fallback
   only fires for duplicates that survive an [intern_reset], e.g.
   registry programs built before a pool worker reset); [compare] keeps
   the exact ordering of the pre-interning structural compare so every
   sorted artifact (symmetry distance lists, golden snapshots) is
   byte-identical to before. *)

type t = { id : int; hash : int; node : node }

and node = (mono * Qnum.t) list
and mono = (atom * int) list

and atom =
  | Var of string
  | Pow2 of t
  | Floor_div of t * t
  | Ceil_div of t * t
  | Opaque_div of t * t

exception Non_integral of string

let id e = e.id
let digest e = e.hash

(* ------------------------------------------------------------------ *)
(* Hashing: structural and bottom-up (children contribute their cached
   [hash] field), so a digest is deterministic across processes and
   intern generations - it depends only on the mathematical term, never
   on id assignment order. *)

let mix h k = (((h * 0x01000193) lxor k) land max_int : int)

let hash_atom = function
  | Var v -> mix 3 (Hashtbl.hash v)
  | Pow2 e -> mix 5 e.hash
  | Floor_div (a, b) -> mix 7 (mix a.hash b.hash)
  | Ceil_div (a, b) -> mix 11 (mix a.hash b.hash)
  | Opaque_div (a, b) -> mix 13 (mix a.hash b.hash)

let hash_mono (m : mono) =
  List.fold_left (fun h (a, k) -> mix (mix h (hash_atom a)) k) 17 m

let hash_node (n : node) =
  List.fold_left (fun h (m, c) -> mix (mix h (hash_mono m)) (Hashtbl.hash c)) 19 n

(* ------------------------------------------------------------------ *)
(* Ordering.  [compare] replicates the pre-interning [Stdlib.compare]
   order on the underlying structure (constructor declaration order,
   lexicographic lists, num-then-den on rationals) but short-circuits on
   physical equality at every node, which is the overwhelmingly common
   case once terms are interned. *)

let compare_q (a : Qnum.t) (b : Qnum.t) =
  let c = Int.compare a.Qnum.num b.Qnum.num in
  if c <> 0 then c else Int.compare a.Qnum.den b.Qnum.den

let rec compare a b = if a == b then 0 else compare_node a.node b.node

and compare_node (a : node) (b : node) =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (ma, ca) :: ta, (mb, cb) :: tb ->
      let c = compare_mono ma mb in
      if c <> 0 then c
      else
        let c = compare_q ca cb in
        if c <> 0 then c else compare_node ta tb

and compare_mono (a : mono) (b : mono) =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (aa, ka) :: ta, (ab, kb) :: tb ->
      let c = compare_atom aa ab in
      if c <> 0 then c
      else
        let c = Int.compare ka kb in
        if c <> 0 then c else compare_mono ta tb

and compare_atom (a : atom) (b : atom) =
  match (a, b) with
  | Var x, Var y -> String.compare x y
  | Var _, _ -> -1
  | _, Var _ -> 1
  | Pow2 x, Pow2 y -> compare x y
  | Pow2 _, _ -> -1
  | _, Pow2 _ -> 1
  | Floor_div (x1, y1), Floor_div (x2, y2) ->
      let c = compare x1 x2 in
      if c <> 0 then c else compare y1 y2
  | Floor_div _, _ -> -1
  | _, Floor_div _ -> 1
  | Ceil_div (x1, y1), Ceil_div (x2, y2) ->
      let c = compare x1 x2 in
      if c <> 0 then c else compare y1 y2
  | Ceil_div _, _ -> -1
  | _, Ceil_div _ -> 1
  | Opaque_div (x1, y1), Opaque_div (x2, y2) ->
      let c = compare x1 x2 in
      if c <> 0 then c else compare y1 y2

let equal a b = a == b || (a.hash = b.hash && compare_node a.node b.node = 0)
let equal_atom a b = compare_atom a b = 0

(* Reference ordering for the test suite: the same structural walk with
   no physical shortcuts anywhere.  [compare]/[equal] must agree with it
   on every input - qcheck pins that down. *)
let rec structural_compare a b = s_node a.node b.node

and s_node (a : node) (b : node) =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (ma, ca) :: ta, (mb, cb) :: tb ->
      let c = s_mono ma mb in
      if c <> 0 then c
      else
        let c = compare_q ca cb in
        if c <> 0 then c else s_node ta tb

and s_mono (a : mono) (b : mono) =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (aa, ka) :: ta, (ab, kb) :: tb ->
      let c = s_atom aa ab in
      if c <> 0 then c
      else
        let c = Int.compare ka kb in
        if c <> 0 then c else s_mono ta tb

and s_atom (a : atom) (b : atom) =
  match (a, b) with
  | Var x, Var y -> String.compare x y
  | Var _, _ -> -1
  | _, Var _ -> 1
  | Pow2 x, Pow2 y -> structural_compare x y
  | Pow2 _, _ -> -1
  | _, Pow2 _ -> 1
  | Floor_div (x1, y1), Floor_div (x2, y2) ->
      let c = structural_compare x1 x2 in
      if c <> 0 then c else structural_compare y1 y2
  | Floor_div _, _ -> -1
  | _, Floor_div _ -> 1
  | Ceil_div (x1, y1), Ceil_div (x2, y2) ->
      let c = structural_compare x1 x2 in
      if c <> 0 then c else structural_compare y1 y2
  | Ceil_div _, _ -> -1
  | _, Ceil_div _ -> 1
  | Opaque_div (x1, y1), Opaque_div (x2, y2) ->
      let c = structural_compare x1 x2 in
      if c <> 0 then c else structural_compare y1 y2

let structural_equal a b = structural_compare a b = 0

(* ------------------------------------------------------------------ *)
(* The intern table. *)

module Tbl = Hashtbl.Make (struct
  type nonrec t = node

  (* Shallow in spirit: children are compared through [compare], which
     physical-shortcuts on same-generation interned subterms. *)
  let equal a b = compare_node a b = 0
  let hash = hash_node
end)

let intern_stats = Metrics.cache "expr.intern"
let table : t Tbl.t = Tbl.create 4096
let next_id = ref 0

let intern (node : node) : t =
  match Tbl.find_opt table node with
  | Some e ->
      Metrics.hit intern_stats;
      e
  | None ->
      Metrics.miss intern_stats;
      incr next_id;
      let e = { id = !next_id; hash = hash_node node; node } in
      Tbl.add table node e;
      e

let intern_size () = Tbl.length table

(* ------------------------------------------------------------------ *)
(* Constructors.  The algebra below works on raw [node] lists and
   interns at the public boundary. *)

let zero : t = intern []
let q c : t = if Qnum.is_zero c then zero else intern [ ([], c) ]
let int n = q (Qnum.of_int n)
let one = int 1
let var v : t = intern [ ([ (Var v, 1) ], Qnum.one) ]
let is_zero e = match e.node with [] -> true | _ -> false

(* [intern_reset] clears the table (so a forked worker or a fresh batch
   job starts with a bounded, history-free intern state) but keeps the
   id counter monotonic: ids are never reused, so expressions created
   before the reset can safely coexist with expressions created after -
   [equal]/[compare] fall back to structure for such cross-generation
   duplicates.  The module-level constants are re-seeded so they keep
   their canonical identity. *)
let intern_reset () =
  Tbl.reset table;
  List.iter (fun e -> Tbl.replace table e.node e) [ zero; one ]

let to_q e =
  match e.node with
  | [] -> Some Qnum.zero
  | [ ([], c) ] -> Some c
  | _ -> None

let to_int e =
  match to_q e with
  | Some c when Qnum.is_integer c -> Some (Qnum.to_int c)
  | _ -> None

let const_part e =
  match List.assoc_opt [] e.node with Some c -> c | None -> Qnum.zero

(* Merge two sorted term lists, combining coefficients. *)
let add_n (a : node) (b : node) : node =
  let rec go a b =
    match (a, b) with
    | [], r | r, [] -> r
    | (ma, ca) :: ta, (mb, cb) :: tb ->
        let c = compare_mono ma mb in
        if c < 0 then (ma, ca) :: go ta b
        else if c > 0 then (mb, cb) :: go a tb
        else
          let s = Qnum.add ca cb in
          if Qnum.is_zero s then go ta tb else (ma, s) :: go ta tb
  in
  go a b

let scale_n c (e : node) : node =
  if Qnum.is_zero c then [] else List.map (fun (m, k) -> (m, Qnum.mul c k)) e

let add a b = intern (add_n a.node b.node)
let scale c e = intern (scale_n c e.node)
let neg e = scale Qnum.minus_one e
let sub a b = add a (neg b)
let sum es = List.fold_left add zero es

(* [split_const e] = (constant integer part, residue) used to normalize
   Pow2 exponents: 2^(L-1) --> (1/2) * 2^L. Only the integer part of the
   constant is extracted so exponents stay integral. *)
let split_const (e : node) : int * node =
  let c = match List.assoc_opt [] e with Some c -> c | None -> Qnum.zero in
  if Qnum.is_zero c then (0, e)
  else
    let k = Qnum.floor c in
    if k = 0 then (0, e) else (k, add_n e [ ([], Qnum.of_int (-k)) ])

let norm_count = Metrics.counter "expr.norm"

(* Build a normalized monomial*coefficient from a raw atom^exp listing.
   All Pow2 atoms are fused: their exponents are summed (weighted by the
   integer power) and any constant part of the sum moves into the
   coefficient. *)
let norm_factors (factors : (atom * int) list) (coeff : Qnum.t) : node =
  Metrics.incr norm_count;
  let pow2_exp = ref [] in
  let others = ref [] in
  List.iter
    (fun (a, k) ->
      if k <> 0 then
        match a with
        | Pow2 e -> pow2_exp := add_n !pow2_exp (scale_n (Qnum.of_int k) e.node)
        | a -> others := (a, k) :: !others)
    factors;
  let kconst, residue = split_const !pow2_exp in
  let coeff = Qnum.mul coeff (Qnum.pow2 kconst) in
  let others =
    match residue with
    | [] -> !others
    | _ -> (Pow2 (intern residue), 1) :: !others
  in
  (* Combine duplicate atoms by summing exponents; the factor lists are
     tiny, so an association list with robust atom equality beats a
     polymorphic hash table (which could miss cross-generation
     duplicates). *)
  let combined = ref [] in
  List.iter
    (fun (a, k) ->
      match List.find_opt (fun (a', _) -> equal_atom a a') !combined with
      | Some (_, r) -> r := !r + k
      | None -> combined := (a, ref k) :: !combined)
    others;
  let mono =
    List.filter_map (fun (a, r) -> if !r = 0 then None else Some (a, !r))
      (List.rev !combined)
  in
  let mono = List.sort (fun (a, _) (b, _) -> compare_atom a b) mono in
  if Qnum.is_zero coeff then [] else [ (mono, coeff) ]

let mul_term (ma, ca) (mb, cb) : node = norm_factors (ma @ mb) (Qnum.mul ca cb)

let mul_n (a : node) (b : node) : node =
  List.fold_left
    (fun acc ta ->
      List.fold_left (fun acc tb -> add_n acc (mul_term ta tb)) acc b)
    [] a

let mul a b = intern (mul_n a.node b.node)
let prod es = List.fold_left mul one es

let pow2 (e : t) : t =
  match to_q e with
  | Some c when Qnum.is_integer c -> q (Qnum.pow2 (Qnum.to_int c))
  | _ -> intern (norm_factors [ (Pow2 e, 1) ] Qnum.one)

(* Divide term-wise by a single monomial: subtract exponents. *)
let div_by_mono (e : node) (dm : mono) (dc : Qnum.t) : node =
  let inv_factors = List.map (fun (a, k) -> (a, -k)) dm in
  List.fold_left
    (fun acc (m, c) ->
      add_n acc (norm_factors (m @ inv_factors) (Qnum.div c dc)))
    [] e

let div (a : t) (b : t) : t =
  match b.node with
  | [] -> raise Qnum.Division_by_zero
  | [ (dm, dc) ] -> intern (div_by_mono a.node dm dc)
  | _ ->
      if equal a b then one
      else if is_zero a then zero
      else intern (norm_factors [ (Opaque_div (a, b), 1) ] Qnum.one)

(* An expression is provably integer-valued when every coefficient is an
   integer and every atom is integer-valued with non-negative exponent.
   Variables are integers by construction (loop indices / parameters);
   Pow2 is integral only for provably non-negative exponents, which we
   cannot see locally, so Pow2 atoms simply disqualify. *)
let provably_integral (e : node) =
  List.for_all
    (fun (m, c) ->
      Qnum.is_integer c
      && List.for_all
           (fun (a, k) ->
             k >= 0
             &&
             match a with Var _ | Floor_div _ | Ceil_div _ -> true | _ -> false)
           m)
    e

let has_opaque (e : node) =
  List.exists
    (fun (m, _) ->
      List.exists (fun (a, _) -> match a with Opaque_div _ -> true | _ -> false) m)
    e

let floor_div (a : t) (b : t) : t =
  match (to_q a, to_q b) with
  | Some ca, Some cb when not (Qnum.is_zero cb) ->
      int (Qnum.floor (Qnum.div ca cb))
  | _, Some cb when Qnum.equal cb Qnum.one -> a
  | _ ->
      let e = div a b in
      if (not (has_opaque e.node)) && provably_integral e.node then e
      else intern (norm_factors [ (Floor_div (a, b), 1) ] Qnum.one)

let ceil_div (a : t) (b : t) : t =
  match (to_q a, to_q b) with
  | Some ca, Some cb when not (Qnum.is_zero cb) ->
      int (Qnum.ceil (Qnum.div ca cb))
  | _, Some cb when Qnum.equal cb Qnum.one -> a
  | _ ->
      let e = div a b in
      if (not (has_opaque e.node)) && provably_integral e.node then e
      else intern (norm_factors [ (Ceil_div (a, b), 1) ] Qnum.one)

let rec vars_atom acc = function
  | Var v -> v :: acc
  | Pow2 e -> vars_node acc e.node
  | Floor_div (a, b) | Ceil_div (a, b) | Opaque_div (a, b) ->
      vars_node (vars_node acc a.node) b.node

and vars_node acc (e : node) =
  List.fold_left
    (fun acc (m, _) -> List.fold_left (fun acc (a, _) -> vars_atom acc a) acc m)
    acc e

let vars e = List.sort_uniq String.compare (vars_node [] e.node)
let mem_var v e = List.mem v (vars e)

(* Rebuild an expression, mapping variables through [f]. *)
let rec map_vars (f : string -> t) (e : t) : t =
  List.fold_left
    (fun acc (m, c) ->
      let term =
        List.fold_left (fun acc (a, k) -> mul acc (atom_power f a k)) (q c) m
      in
      add acc term)
    zero e.node

and atom_power f a k : t =
  let base =
    match a with
    | Var v -> f v
    | Pow2 e -> pow2 (map_vars f e)
    | Floor_div (x, y) -> floor_div (map_vars f x) (map_vars f y)
    | Ceil_div (x, y) -> ceil_div (map_vars f x) (map_vars f y)
    | Opaque_div (x, y) -> div (map_vars f x) (map_vars f y)
  in
  if k >= 0 then
    let rec pow acc n = if n = 0 then acc else pow (mul acc base) (n - 1) in
    pow one k
  else
    (* Negative power: divide 1 by base^|k|. *)
    let rec pow acc n = if n = 0 then acc else pow (mul acc base) (n - 1) in
    div one (pow one (-k))

let subst v by e = map_vars (fun w -> if String.equal w v then by else var w) e

let subst_env bindings e =
  map_vars
    (fun w -> match List.assoc_opt w bindings with Some b -> b | None -> var w)
    e

let linear_in v (e : t) =
  let uses_v_atom a =
    List.mem v (List.sort_uniq String.compare (vars_atom [] a))
  in
  let rec go a b = function
    | [] -> Some (intern a, intern b)
    | (m, c) :: rest -> (
        let v_factors, others =
          List.partition (fun (at, _) -> uses_v_atom at) m
        in
        match v_factors with
        | [] -> go a (add_n b [ (m, c) ]) rest
        | [ (Var _, 1) ] -> go (add_n a [ (others, c) ]) b rest
        | _ -> None)
  in
  go [] [] e.node

let rec eval_node lookup (e : node) =
  List.fold_left
    (fun acc (m, c) ->
      Qnum.add acc
        (List.fold_left
           (fun acc (a, k) ->
             let base = atom_value lookup a in
             let rec pow acc n =
               if n = 0 then acc else pow (Qnum.mul acc base) (n - 1)
             in
             Qnum.mul acc
               (if k >= 0 then pow Qnum.one k else Qnum.inv (pow Qnum.one (-k))))
           c m))
    Qnum.zero e

and atom_value lookup = function
  | Var v -> lookup v
  | Pow2 e ->
      let x = eval_node lookup e.node in
      if not (Qnum.is_integer x) then raise (Non_integral "Pow2 exponent");
      Qnum.pow2 (Qnum.to_int x)
  | Floor_div (x, y) ->
      Qnum.of_int
        (Qnum.floor (Qnum.div (eval_node lookup x.node) (eval_node lookup y.node)))
  | Ceil_div (x, y) ->
      Qnum.of_int
        (Qnum.ceil (Qnum.div (eval_node lookup x.node) (eval_node lookup y.node)))
  | Opaque_div (x, y) ->
      Qnum.div (eval_node lookup x.node) (eval_node lookup y.node)

let eval lookup (e : t) = eval_node lookup e.node
let terms (e : t) = e.node

let eval_int lookup e =
  let v = eval lookup e in
  if Qnum.is_integer v then Qnum.to_int v
  else raise (Non_integral (Format.asprintf "value %a" Qnum.pp v))

let rec pp ppf e = pp_node ppf e.node

and pp_atom ppf = function
  | Var v -> Format.pp_print_string ppf v
  | Pow2 e -> Format.fprintf ppf "2^(%a)" pp e
  | Floor_div (a, b) -> Format.fprintf ppf "floor(%a / %a)" pp a pp b
  | Ceil_div (a, b) -> Format.fprintf ppf "ceil(%a / %a)" pp a pp b
  | Opaque_div (a, b) -> Format.fprintf ppf "(%a / %a)" pp a pp b

and pp_mono ppf (m : mono) =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "*")
    (fun ppf (a, k) ->
      if k = 1 then pp_atom ppf a else Format.fprintf ppf "%a^%d" pp_atom a k)
    ppf m

and pp_node ppf (e : node) =
  match e with
  | [] -> Format.pp_print_string ppf "0"
  | terms ->
      List.iteri
        (fun i (m, c) ->
          let neg = Qnum.sign c < 0 in
          if i = 0 then (if neg then Format.pp_print_string ppf "-")
          else Format.pp_print_string ppf (if neg then " - " else " + ");
          let c = Qnum.abs c in
          match m with
          | [] -> Qnum.pp ppf c
          | _ ->
              if not (Qnum.equal c Qnum.one) then
                Format.fprintf ppf "%a*" Qnum.pp c;
              pp_mono ppf m)
        terms

let to_string e = Format.asprintf "%a" pp e
