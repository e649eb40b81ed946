open Symbolic
open Types

type attr = R | W | RW | P

let equal_attr a b =
  match (a, b) with
  | R, R | W, W | RW, RW | P, P -> true
  | (R | W | RW | P), _ -> false

let attr_to_string = function R -> "R" | W -> "W" | RW -> "R/W" | P -> "P"
let pp_attr ppf a = Format.pp_print_string ppf (attr_to_string a)

let static_attr _prog ph ~array =
  let refs =
    stmt_refs (Loop ph.nest) |> List.filter (fun r -> String.equal r.array array)
  in
  let has k = List.exists (fun r -> equal_access r.access k) refs in
  match (has Read, has Write) with
  | true, true -> RW
  | true, false -> R
  | false, true -> W
  | false, false -> R

let def_before_use_enum ?budget prog env ph ~array =
  (* Per parallel iteration, every read must hit a location already
     written by the same iteration. *)
  let written = Hashtbl.create 64 in
  let current = ref None in
  let ok = ref true in
  Enumerate.iter ?budget prog env ph ~f:(fun ~par ~array:a ~addr access ~work:_ ->
      if String.equal a array then begin
        if par <> !current then begin
          Hashtbl.reset written;
          current := par
        end;
        match access with
        | Write -> Hashtbl.replace written addr ()
        | Read -> if not (Hashtbl.mem written addr) then ok := false
      end);
  !ok

(* ------------------------------------------------------------------ *)
(* Closed-form liveness.  The symbolic rules answer only when certain
   (their verdict must equal the enumerating oracle's, since attributes
   feed the printed reports); anything subtler returns [None] and the
   caller falls back to enumeration, counted as a fragment exit.       *)

let equal_par a b =
  match (a, b) with
  | Shape.Outside, Shape.Outside -> true
  | Shape.Strided x, Shape.Strided y -> x = y
  | Shape.Fixed x, Shape.Fixed y -> x = y
  | (Shape.Outside | Shape.Strided _ | Shape.Fixed _), _ -> false

(* [def_before_use] in closed form.  Sound cases:
   - no reads on the array: vacuously true;
   - the first emitting site on the array is a read: its first event is
     the first event on the array in the whole phase, so it cannot be
     covered - definitely false;
   - every read site has a strictly-earlier write site of *identical*
     shape (base, parallel shape, sequential dims): then at every
     iteration the read's address was written earlier in the same
     parallel iteration - definitely true.  For sites outside the
     parallel loop the per-iteration write table is reset when the
     loop's event group starts and ends, so the covering write must
     additionally sit on the same side of the parallel loop: no
     emitting in-loop site may separate the pair. *)
let def_before_use_symbolic prog env ph ~array =
  match Shape.of_phase prog env ph with
  | None -> None
  | Some t -> (
      try
        let sites =
          List.mapi (fun i s -> (i, s)) t.sites
          |> List.filter (fun (_, s) -> Shape.emits t s)
        in
        let mine =
          List.filter (fun (_, s) -> String.equal s.Shape.array array) sites
        in
        match mine with
        | [] -> Some true
        | (_, first) :: _ when Types.equal_access first.access Types.Read ->
            Some false
        | _ ->
            let same_side wi ri =
              List.for_all
                (fun (j, s) ->
                  j <= wi || j >= ri
                  || match s.Shape.par with
                     | Shape.Outside -> true
                     | Shape.Strided _ | Shape.Fixed _ -> false)
                sites
            in
            let covered (ri, (r : Shape.site)) =
              Types.equal_access r.access Types.Write
              || List.exists
                   (fun (wi, (w : Shape.site)) ->
                     wi < ri
                     && Types.equal_access w.access Types.Write
                     && w.base = r.base
                     && equal_par w.par r.par
                     && w.seq = r.seq
                     && (match r.par with
                        | Shape.Outside -> same_side wi ri
                        | Shape.Strided _ | Shape.Fixed _ -> true))
                   mine
            in
            if List.for_all covered mine then Some true else None
      with Lattice.Overflow -> None)

let dead_after_enum ?budget prog env k ~array =
  (* Forward scan over the phases executed after phase k (wrapping once
     when the program repeats): a location written by k is live if some
     later phase reads it before overwriting it. *)
  let exposed = Hashtbl.create 64 in
  (* start: all addresses phase k writes *)
  Enumerate.iter ?budget prog env (List.nth prog.phases k) ~f:(fun ~par:_ ~array:a ~addr access ~work:_ ->
      if String.equal a array && equal_access access Write then
        Hashtbl.replace exposed addr ());
  let n = List.length prog.phases in
  let order =
    (* Phases after k in execution order; with repetition the whole
       program runs again, including phase k's predecessors and k itself. *)
    let tail = List.init (n - k - 1) (fun i -> k + 1 + i) in
    if prog.repeats then tail @ List.init (n - List.length tail) (fun i -> i mod n)
    else tail
  in
  let live = ref false in
  List.iter
    (fun g ->
      if (not !live) && Hashtbl.length exposed > 0 then begin
        let killed = Hashtbl.create 64 in
        Enumerate.iter ?budget prog env (List.nth prog.phases g)
          ~f:(fun ~par:_ ~array:a ~addr access ~work:_ ->
            if String.equal a array then
              match access with
              | Read ->
                  if Hashtbl.mem exposed addr && not (Hashtbl.mem killed addr)
                  then live := true
              | Write -> Hashtbl.replace killed addr ());
        Hashtbl.iter (fun addr () -> Hashtbl.remove exposed addr) killed
      end)
    order;
  (* A non-repeating program's arrays are outputs: values that survive
     to program exit are live. *)
  (not !live) && (prog.repeats || Hashtbl.length exposed = 0)

(* [dead_after] in closed form.  The exposed set is carried as an exact
   list of boxes; each later phase either certainly leaves it alone
   (all its reads and writes provably disjoint), certainly reads it
   while unable to kill it first (some read definitely intersects and
   the phase writes nothing on the array), or certainly erases it
   (every exposed box inside some write box).  Any subtler interaction
   - partial kills, possible-but-unproven overlap - returns [None]. *)
let dead_after_symbolic prog env k ~array =
  let exception Subtle in
  try
    let shape_of ph =
      match Shape.of_phase prog env ph with
      | Some t -> t
      | None -> raise Subtle
    in
    let boxes_of t acc =
      List.filter_map
        (fun (s : Shape.site) ->
          if
            String.equal s.array array
            && Types.equal_access s.access acc
            && Shape.emits t s
          then Shape.box t s
          else None)
        t.sites
    in
    let tk = shape_of (List.nth prog.phases k) in
    let exposed = ref (boxes_of tk Types.Write) in
    let n = List.length prog.phases in
    let order =
      let tail = List.init (n - k - 1) (fun i -> k + 1 + i) in
      if prog.repeats then
        tail @ List.init (n - List.length tail) (fun i -> i mod n)
      else tail
    in
    let all_disjoint xs ys =
      List.for_all
        (fun x ->
          List.for_all
            (fun y ->
              match Lattice.disjoint x y with
              | Lattice.Yes -> true
              | Lattice.No | Lattice.Unknown -> false)
            ys)
        xs
    in
    let some_certainly_meets xs ys =
      List.exists
        (fun x ->
          List.exists
            (fun y ->
              match Lattice.disjoint x y with
              | Lattice.No -> true
              | Lattice.Yes | Lattice.Unknown -> false)
            ys)
        xs
    in
    let live = ref false in
    List.iter
      (fun g ->
        if (not !live) && !exposed <> [] then begin
          let tg = shape_of (List.nth prog.phases g) in
          let reads = boxes_of tg Types.Read
          and writes = boxes_of tg Types.Write in
          if all_disjoint reads !exposed then
            if all_disjoint writes !exposed then ()
            else if
              List.for_all
                (fun e ->
                  List.exists
                    (fun w ->
                      match Lattice.subset e w with
                      | Lattice.Yes -> true
                      | Lattice.No | Lattice.Unknown -> false)
                    writes)
                !exposed
            then exposed := []
            else raise Subtle
          else if writes = [] && some_certainly_meets reads !exposed then
            (* nothing in this phase can kill an address first *)
            live := true
          else raise Subtle
        end)
      order;
    Some ((not !live) && (prog.repeats || !exposed = []))
  with Subtle | Lattice.Overflow -> None

let def_before_use prog env ph ~array =
  match !Lattice.mode with
  | Lattice.Enumerated_only -> def_before_use_enum prog env ph ~array
  | Lattice.Auto | Lattice.Symbolic_only -> (
      match def_before_use_symbolic prog env ph ~array with
      | Some b -> b
      | None ->
          Lattice.note_fallback ~stage:"liveness"
            (array ^ " def-before-use in " ^ ph.phase_name);
          def_before_use_enum
            ~budget:(Enumerate.budget ~stage:"liveness" ~array)
            prog env ph ~array)

let dead_after prog env k ~array =
  match !Lattice.mode with
  | Lattice.Enumerated_only -> dead_after_enum prog env k ~array
  | Lattice.Auto | Lattice.Symbolic_only -> (
      match dead_after_symbolic prog env k ~array with
      | Some b -> b
      | None ->
          Lattice.note_fallback ~stage:"liveness" (array ^ " dead-after");
          dead_after_enum
            ~budget:(Enumerate.budget ~stage:"liveness" ~array)
            prog env k ~array)

let default_envs prog =
  (* Small, deterministic parameter samples. *)
  let st = Random.State.make [| 7; 13; 2029 |] in
  List.init 3 (fun _ -> Assume.sample ~state:st prog.params)

let attr ?envs prog k ~array =
  let ph = List.nth prog.phases k in
  match static_attr prog ph ~array with
  | R -> R
  | W | RW -> (
      let envs = match envs with Some e -> e | None -> default_envs prog in
      let privatizable =
        envs <> []
        && List.for_all
             (fun env ->
               def_before_use prog env ph ~array && dead_after prog env k ~array)
             envs
      in
      if privatizable then P
      else match static_attr prog ph ~array with W -> W | _ -> RW)
  | P -> assert false

let attrs ?envs prog =
  let arrays = List.map (fun (a : array_decl) -> a.name) prog.arrays in
  let envs = match envs with Some e -> e | None -> default_envs prog in
  List.map
    (fun name ->
      ( name,
        Array.init (List.length prog.phases) (fun k -> attr ~envs prog k ~array:name)
      ))
    arrays
