open Symbolic
open Locality

type layout = {
  array : string;
  first_phase : int;
  last_phase : int;
  base : int;
  block : int;
  period : int option;
  mirror : int option;
  halo : int;
}

type plan = {
  h : int;
  chunk : int array;
  layouts : layout list;
  privatized : (int * string) list;
}

let proc_of (plan : plan) (l : layout) ~addr =
  let rel = addr - l.base in
  let rel = if rel < 0 then 0 else rel in
  let rel = match l.period with Some d when d > 0 -> rel mod d | _ -> rel in
  let rel =
    match l.mirror with
    | Some m when m > 0 && rel < m -> min rel (m - 1 - rel)
    | _ -> rel
  in
  rel / l.block mod plan.h

let layout_for (plan : plan) ~array ~phase_idx =
  List.find_opt
    (fun l ->
      String.equal l.array array
      && phase_idx >= l.first_phase
      && phase_idx <= l.last_phase)
    plan.layouts

let array_size (lcg : Lcg.t) array =
  try
    Env.eval lcg.env
      (Ir.Linearize.size ~dims:(Ir.Types.array_decl lcg.prog array).dims)
  with Expr.Non_integral _ | Env.Unbound _ | Qnum.Overflow -> 1

let ceil_div a b = (a + b - 1) / b

let own_of ~h (l : layout) : Lattice.Own.t =
  {
    Lattice.Own.h;
    base = l.base;
    block = l.block;
    period = l.period;
    mirror = l.mirror;
  }

(* Remote accesses layout [l] induces for its array in phase
   [phase_idx], given the plan's CYCLIC(p) schedules. *)
let remote_count_enum ?budget (lcg : Lcg.t) (plan : plan) (l : layout)
    ~phase_idx =
  let ph = List.nth lcg.prog.phases phase_idx in
  let chunk = plan.chunk.(phase_idx) in
  let remote = ref 0 in
  Ir.Enumerate.iter ?budget lcg.prog lcg.env ph
    ~f:(fun ~par ~array ~addr _ ~work:_ ->
      if String.equal array l.array then begin
        let proc =
          match par with
          | Some i -> i / max 1 chunk mod plan.h
          | None -> 0
        in
        if proc_of plan l ~addr <> proc then incr remote
      end);
  !remote

(* The same count in closed form: per-processor ownership intervals
   over the hull of the phase's sites on this array, each site counted
   by window sweeps. *)
let remote_count_symbolic (lcg : Lcg.t) (plan : plan) (l : layout) ~phase_idx =
  let ph = List.nth lcg.prog.phases phase_idx in
  match Ir.Shape.of_phase lcg.prog lcg.env ph with
  | None -> None
  | Some t -> (
      try
        let sites =
          List.filter
            (fun (s : Ir.Shape.site) ->
              String.equal s.array l.array && Ir.Shape.emits t s)
            t.sites
        in
        if sites = [] then Some 0
        else
          let boxes = List.filter_map (Ir.Shape.box t) sites in
          match Lattice.bounds boxes with
          | None -> Some 0
          | Some (lo, hi) -> (
              match Owncount.intervals_of (own_of ~h:plan.h l) ~lo ~hi with
              | None -> None
              | Some sets ->
                  let chunk = plan.chunk.(phase_idx) in
                  List.fold_left
                    (fun acc (s : Ir.Shape.site) ->
                      match acc with
                      | None -> None
                      | Some r -> (
                          match
                            Owncount.per_proc ~h:plan.h ~chunk ~par:s.par
                              ~par_n:t.par_n ~base:s.base ~seq:s.seq ~sets
                          with
                          | None -> None
                          | Some (events, hits) ->
                              let tot = Array.fold_left ( + ) 0 events
                              and owned = Array.fold_left ( + ) 0 hits in
                              Some (r + tot - owned)))
                    (Some 0) sites)
      with Lattice.Overflow -> None)

let remote_count (lcg : Lcg.t) (plan : plan) (l : layout) ~phase_idx =
  match !Lattice.mode with
  | Lattice.Enumerated_only -> remote_count_enum lcg plan l ~phase_idx
  | Lattice.Auto | Lattice.Symbolic_only -> (
      match remote_count_symbolic lcg plan l ~phase_idx with
      | Some r -> r
      | None ->
          Lattice.note_fallback ~stage:"distribution"
            (l.array ^ " remote count");
          remote_count_enum
            ~budget:(Ir.Enumerate.budget ~stage:"distribution" ~array:l.array)
            lcg plan l ~phase_idx)

(* Does any phase of the layout's epoch write the array? *)
let epoch_written_enum ?budget (lcg : Lcg.t) (l : layout) =
  let found = ref false in
  for k = l.first_phase to l.last_phase do
    Ir.Enumerate.iter ?budget lcg.prog lcg.env (List.nth lcg.prog.phases k)
      ~f:(fun ~par:_ ~array ~addr:_ access ~work:_ ->
        if
          String.equal array l.array
          && (match access with
             | Ir.Types.Write -> true
             | Ir.Types.Read -> false)
        then found := true)
  done;
  !found

let epoch_written_symbolic (lcg : Lcg.t) (l : layout) =
  let exception Subtle in
  try
    let found = ref false in
    for k = l.first_phase to l.last_phase do
      match Ir.Shape.of_phase lcg.prog lcg.env (List.nth lcg.prog.phases k) with
      | None -> raise Subtle
      | Some t ->
          if
            List.exists
              (fun (s : Ir.Shape.site) ->
                String.equal s.array l.array
                && (match s.access with
                   | Ir.Types.Write -> true
                   | Ir.Types.Read -> false)
                && Ir.Shape.emits t s)
              t.sites
          then found := true
    done;
    Some !found
  with Subtle -> None

let epoch_written (lcg : Lcg.t) (l : layout) =
  match !Lattice.mode with
  | Lattice.Enumerated_only -> epoch_written_enum lcg l
  | Lattice.Auto | Lattice.Symbolic_only -> (
      match epoch_written_symbolic lcg l with
      | Some b -> b
      | None ->
          Lattice.note_fallback ~stage:"distribution"
            (l.array ^ " epoch writes");
          epoch_written_enum
            ~budget:(Ir.Enumerate.budget ~stage:"distribution" ~array:l.array)
            lcg l)

(* Ghost-zone payoff of a candidate layout: remote reads the halo would
   serve locally, and how many of the epoch's phases write the array
   (each such phase ships frontier updates). *)
let halo_savings_enum ?budget (lcg : Lcg.t) (plan0 : plan) ~p (l : layout) =
  let h = plan0.h in
  let saved = ref 0 and writing_phases = ref 0 in
  for k = l.first_phase to l.last_phase do
    let ph = List.nth lcg.prog.phases k in
    let chunk = max 1 p.(k) in
    let wrote = ref false in
    Ir.Enumerate.iter ?budget lcg.prog lcg.env ph
      ~f:(fun ~par ~array ~addr access ~work:_ ->
        if String.equal array l.array then begin
          let proc = match par with Some i -> i / chunk mod h | None -> 0 in
          match access with
          | Ir.Types.Write -> wrote := true
          | Ir.Types.Read ->
              let w = min l.halo l.block in
              if
                proc_of plan0 l ~addr <> proc
                && (proc_of plan0 l ~addr:(addr - w) = proc
                   || proc_of plan0 l ~addr:(addr + w) = proc)
              then incr saved
        end);
    if !wrote then incr writing_phases
  done;
  (!saved, !writing_phases)

let halo_savings_symbolic (lcg : Lcg.t) (plan0 : plan) ~p (l : layout) =
  let exception Subtle in
  try
    let h = plan0.h in
    let own = own_of ~h l in
    let w = min l.halo l.block in
    let saved = ref 0 and writing_phases = ref 0 in
    for k = l.first_phase to l.last_phase do
      let ph = List.nth lcg.prog.phases k in
      match Ir.Shape.of_phase lcg.prog lcg.env ph with
      | None -> raise Subtle
      | Some t ->
          let sites =
            List.filter
              (fun (s : Ir.Shape.site) ->
                String.equal s.array l.array && Ir.Shape.emits t s)
              t.sites
          in
          if
            List.exists
              (fun (s : Ir.Shape.site) ->
                match s.access with
                | Ir.Types.Write -> true
                | Ir.Types.Read -> false)
              sites
          then incr writing_phases;
          let reads =
            List.filter
              (fun (s : Ir.Shape.site) ->
                match s.access with
                | Ir.Types.Read -> true
                | Ir.Types.Write -> false)
              sites
          in
          if reads <> [] then begin
            let boxes = List.filter_map (Ir.Shape.box t) reads in
            match Lattice.bounds boxes with
            | None -> ()
            | Some (lo, hi) -> (
                match Owncount.intervals_of own ~lo:(lo - w) ~hi:(hi + w) with
                | None -> raise Subtle
                | Some owned ->
                    (* addresses within w of an owned cell but not owned:
                       the set the ghost zone turns local *)
                    let sets =
                      Array.map
                        (fun o ->
                          Lattice.Iv.subtract
                            (Lattice.Iv.union (Lattice.Iv.shift o w)
                               (Lattice.Iv.shift o (-w)))
                            o)
                        owned
                    in
                    let chunk = p.(k) in
                    List.iter
                      (fun (s : Ir.Shape.site) ->
                        match
                          Owncount.per_proc ~h ~chunk ~par:s.par ~par_n:t.par_n
                            ~base:s.base ~seq:s.seq ~sets
                        with
                        | None -> raise Subtle
                        | Some (_, hits) ->
                            saved := !saved + Array.fold_left ( + ) 0 hits)
                      reads)
          end
    done;
    Some (!saved, !writing_phases)
  with Subtle | Lattice.Overflow -> None

let halo_savings (lcg : Lcg.t) (plan0 : plan) ~p (l : layout) =
  match !Lattice.mode with
  | Lattice.Enumerated_only -> halo_savings_enum lcg plan0 ~p l
  | Lattice.Auto | Lattice.Symbolic_only -> (
      match halo_savings_symbolic lcg plan0 ~p l with
      | Some r -> r
      | None ->
          Lattice.note_fallback ~stage:"distribution"
            (l.array ^ " halo payoff");
          halo_savings_enum
            ~budget:(Ir.Enumerate.budget ~stage:"distribution" ~array:l.array)
            lcg plan0 ~p l)

let of_solution (lcg : Lcg.t) ~p : plan =
  let h = lcg.h in
  let privatized =
    List.concat_map
      (fun (g : Lcg.graph) ->
        List.filter_map
          (fun (n : Lcg.node) ->
            if Ir.Liveness.equal_attr n.attr Ir.Liveness.P then
              Some (n.phase_idx, g.array)
            else None)
          g.nodes)
      lcg.graphs
  in
  let plan0 = { h; chunk = p; layouts = []; privatized } in
  let layouts =
    List.concat_map
      (fun (g : Lcg.graph) ->
        let chains = Lcg.chains g in
        (* A chain made only of privatizable nodes accesses private
           copies: it needs no layout epoch of its own (opening one
           would force useless redistributions around it). *)
        let chains =
          List.filter
            (fun chain ->
              not
                (List.for_all
                   (fun pos ->
                     Ir.Liveness.equal_attr (List.nth g.nodes pos).Lcg.attr
                       Ir.Liveness.P)
                   chain))
            chains
        in
        let n_phases = List.length lcg.prog.phases in
        List.mapi
          (fun ci chain ->
            let head_pos = List.hd chain in
            let head = List.nth g.nodes head_pos in
            let last_pos = List.nth chain (List.length chain - 1) in
            let first_phase = if ci = 0 then 0 else head.phase_idx in
            let last_phase =
              if last_pos = List.length g.nodes - 1 then n_phases - 1
              else (List.nth g.nodes (last_pos + 1)).Lcg.phase_idx - 1
            in
            let chain_nodes = List.map (List.nth g.nodes) chain in
            let halo =
              List.fold_left
                (fun acc (n : Lcg.node) -> max acc (Lcg.halo lcg n))
                0 chain_nodes
            in
            let fallback =
              {
                array = g.array;
                first_phase;
                last_phase;
                base = 0;
                block = max 1 (ceil_div (array_size lcg g.array) h);
                period = None;
                mirror = None;
                halo;
              }
            in
            match Balance.side head.id with
            | None -> fallback
            | Some side -> (
                try
                  let dp = Env.eval lcg.env side.primary.par_stride in
                  let tau = Env.eval lcg.env side.primary.offset0 in
                  if dp <= 0 then fallback
                  else begin
                    let block = max 1 (dp * p.(head.phase_idx)) in
                    let plain =
                      {
                        array = g.array;
                        first_phase;
                        last_phase;
                        base = tau;
                        block;
                        period = None;
                        mirror = None;
                        halo;
                      }
                    in
                    (* Candidate shifted / reverse refinements from the
                       storage distances of every chain node. *)
                    let near =
                      try Env.eval lcg.env side.primary.span_seq + (2 * dp)
                      with Expr.Non_integral _ | Env.Unbound _ | Qnum.Overflow -> 0
                    in
                    let eval_dists dists =
                      List.filter_map
                        (fun d ->
                          try
                            let v = Qnum.floor (Env.eval_q lcg.env d) in
                            if v > near then Some v else None
                          with Expr.Non_integral _ | Env.Unbound _ | Qnum.Overflow -> None)
                        dists
                      |> List.sort_uniq compare
                    in
                    let periods =
                      eval_dists
                        (List.concat_map
                           (fun (n : Lcg.node) -> n.sym.shifted)
                           chain_nodes)
                    in
                    let mirrors =
                      eval_dists
                        (List.concat_map
                           (fun (n : Lcg.node) -> n.sym.reverse)
                           chain_nodes)
                    in
                    (* base variants: a stencil chain's tau_min is the
                       lowest ghost-read offset; anchoring a stride or
                       two higher can align blocks with the core
                       (written) region *)
                    let base_variants =
                      List.filter_map
                        (fun k ->
                          if k = 0 then Some plain
                          else
                            let b = tau + (k * dp) in
                            Some { plain with base = b })
                        [ 0; 1; 2 ]
                    in
                    let candidates =
                      base_variants
                      @ List.concat_map
                          (fun per ->
                            { plain with period = Some per }
                            :: List.map
                                 (fun m ->
                                   { plain with period = Some per; mirror = Some m })
                                 (List.filter (fun m -> m <= per) mirrors))
                          periods
                      @ List.map (fun m -> { plain with mirror = Some m }) mirrors
                    in
                    let refit_halo (l : layout) =
                      if l.halo <= 0 then l
                      else
                        let size = array_size lcg g.array in
                        if l.halo >= size then l
                        else
                          let stray =
                            List.fold_left
                              (fun acc (n : Lcg.node) ->
                                match
                                  ( Lcg.region_bounds lcg n ~par:0,
                                    Lcg.region_bounds lcg n ~par:1 )
                                with
                                | Some (lo0, hi0), Some (lo1, _) ->
                                    let d = max 1 (lo1 - lo0) in
                                    let up = hi0 - (l.base + d - 1) in
                                    let down = l.base - lo0 in
                                    max acc (max 0 (max up down))
                                | _ -> max acc l.halo)
                              0 chain_nodes
                          in
                          { l with halo = min l.halo stray }
                    in
                    match candidates with
                    | [ only ] -> refit_halo only
                    | _ ->
                        (* score on remote accesses, tie-break on the
                           fitted halo (smaller ghost zones mean smaller
                           frontier updates) *)
                        let score l =
                          let l = refit_halo l in
                          ( List.fold_left
                              (fun acc (n : Lcg.node) ->
                                acc
                                + remote_count lcg plan0 l ~phase_idx:n.phase_idx)
                              0 chain_nodes,
                            l.halo,
                            l )
                        in
                        let br, bh, bl =
                          List.fold_left
                            (fun (br, bh, bl) cand ->
                              let r, hh, l = score cand in
                              if r < br || (r = br && hh < bh) then (r, hh, l)
                              else (br, bh, bl))
                            (score plain)
                            (List.tl candidates)
                        in
                        ignore (br, bh);
                        bl
                  end
                with Expr.Non_integral _ | Env.Unbound _ | Qnum.Overflow -> fallback))
          chains)
      lcg.graphs
  in
  (* Keep a halo only when it pays: the remote reads it converts to
     local (valued at t_remote each) must beat the frontier updates the
     epoch's writing phases will have to ship. *)
  let machine = Cost.default_machine ~h in
  let layouts =
    List.map
      (fun (l : layout) ->
        if l.halo <= 0 then l
        else begin
          let size = array_size lcg l.array in
          if l.halo >= size then
            if epoch_written lcg l then { l with halo = 0 }
            else l (* read-only replication always wins *)
          else begin
            let saved, writing_phases = halo_savings lcg plan0 ~p l in
            let nblocks = (size + l.block - 1) / l.block in
            let frontier_cost =
              float_of_int writing_phases
              *. Cost.frontier machine ~words:(2 * l.halo * nblocks / h)
            in
            let benefit =
              float_of_int (saved * (machine.t_remote - machine.t_local))
              /. float_of_int h
            in
            if benefit > frontier_cost then l else { l with halo = 0 }
          end
        end)
      layouts
  in
  (* Stretch every epoch to meet the next one of the same array, so the
     removal of privatized chains leaves no uncovered phases. *)
  let n_phases = List.length lcg.prog.phases in
  let layouts =
    List.concat_map
      (fun (decl : Ir.Types.array_decl) ->
        let mine =
          List.filter (fun l -> String.equal l.array decl.name) layouts
          |> List.sort (fun a b -> compare a.first_phase b.first_phase)
        in
        let rec stretch = function
          | [] -> []
          | [ last ] -> [ { last with last_phase = n_phases - 1 } ]
          | a :: (b :: _ as rest) ->
              { a with last_phase = b.first_phase - 1 } :: stretch rest
        in
        stretch mine)
      lcg.prog.arrays
  in
  { plan0 with layouts }

let block_plan (lcg : Lcg.t) : plan =
  let h = lcg.h in
  let n = List.length lcg.prog.phases in
  let chunk =
    Array.init n (fun k ->
        let counts =
          List.filter_map
            (fun (g : Lcg.graph) ->
              Option.map (fun (nd : Lcg.node) -> nd.par_n)
                (Lcg.node_of_phase g ~phase_idx:k))
            lcg.graphs
        in
        match counts with [] -> 1 | c :: _ -> max 1 (ceil_div c h))
  in
  let layouts =
    List.map
      (fun (decl : Ir.Types.array_decl) ->
        {
          array = decl.name;
          first_phase = 0;
          last_phase = n - 1;
          base = 0;
          block = max 1 (ceil_div (array_size lcg decl.name) h);
          period = None;
          mirror = None;
          halo = 0;
        })
      lcg.prog.arrays
  in
  { h; chunk; layouts; privatized = [] }

let pp ppf (plan : plan) =
  Format.fprintf ppf "@[<v>H=%d@,chunks: %s@," plan.h
    (String.concat ", "
       (Array.to_list (Array.mapi (fun k p -> Printf.sprintf "p%d=%d" k p) plan.chunk)));
  List.iter
    (fun l ->
      Format.fprintf ppf "%s phases %d..%d: CYCLIC(%d) base %d%s%s%s@," l.array
        l.first_phase l.last_phase l.block l.base
        (match l.period with Some d -> Printf.sprintf " period %d" d | None -> "")
        (match l.mirror with Some m -> Printf.sprintf " mirror %d" m | None -> "")
        (if l.halo > 0 then Printf.sprintf " halo %d" l.halo else ""))
    plan.layouts;
  (match plan.privatized with
  | [] -> ()
  | ps ->
      Format.fprintf ppf "privatized: %s@,"
        (String.concat ", "
           (List.map (fun (k, a) -> Printf.sprintf "(%d,%s)" k a) ps)));
  Format.fprintf ppf "@]"
