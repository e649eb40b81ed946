open Symbolic
open Ilp

exception Unsupported of string

(* Subscript / bound shapes of the shared lowering, exposed for tests. *)
type shape = Ir.Lower.shape =
  | Const of int
  | Affine of int * (int * int) list
  | Opaque

type handlers = {
  read : par:int option -> array:string -> addr:int -> float;
  write : par:int option -> array:string -> addr:int -> v:float -> unit;
  stamp : site:int -> addr:int -> float;
  work : par:int option -> work:int -> unit;
  sync : unit -> unit;
}

type t = {
  phase_name : string;
  parallel : bool;
  nslots : int;
  shapes : shape list;
  sweep : slots:int array -> me:int option -> handlers -> unit;
}

let proc_of_iteration ~chunk ~h i = i / max 1 chunk mod h

(* The lowering defers a failure to the first evaluation that reaches
   it; a sweep must not start at all when it cannot close over the
   program, so the constructs it cannot handle are refused up front, in
   lowering order. *)
let check_expr env scope e =
  List.iter
    (fun v ->
      if not (List.mem_assoc v scope || Env.mem env v) then
        raise (Unsupported (Printf.sprintf "parameter %s has no binding" v)))
    (Expr.vars e)

let check_ref env scope (prog : Ir.Types.program) (r : Ir.Types.array_ref) =
  let decl =
    match Ir.Types.array_decl prog r.array with
    | d -> d
    | exception Not_found ->
        raise (Unsupported ("undeclared array " ^ r.array))
  in
  (match List.rev decl.dims with
  | [] -> ()
  | _last :: rest_rev ->
      List.iter
        (fun d ->
          try ignore (Env.eval env d)
          with _ ->
            raise
              (Unsupported
                 (Printf.sprintf "extent of %s does not evaluate" r.array)))
        rest_rev);
  List.iter (check_expr env scope) r.index;
  if List.length r.index <> List.length decl.dims then
    raise (Unsupported ("rank mismatch on " ^ r.array))

let rec has_parallel (s : Ir.Types.stmt) =
  match s with
  | Ir.Types.Assign _ -> false
  | Ir.Types.Loop l -> l.parallel || List.exists has_parallel l.body

(* One compiled statement: a closure [slots -> par -> me -> handlers].
   Ownership filtering happens at the parallel loop (a phase has at
   most one), and again defensively at each assignment for serial
   statements, which run on processor 0. *)
let rec compile_stmt cx env scope ~chunk ~h shapes prog (s : Ir.Types.stmt) =
  match s with
  | Ir.Types.Assign a ->
      let compiled =
        List.mapi
          (fun site (r : Ir.Types.array_ref) ->
            check_ref env scope prog r;
            let sh, addr = Ir.Lower.addr cx scope r in
            shapes := List.rev_append sh !shapes;
            (site, r.access, r.array, addr))
          a.refs
      in
      let creads =
        List.filter_map
          (fun (_, acc, array, addr) ->
            if Ir.Types.equal_access acc Ir.Types.Read then Some (array, addr)
            else None)
          compiled
      and cwrites =
        List.filter_map
          (fun (site, acc, array, addr) ->
            if Ir.Types.equal_access acc Ir.Types.Write then
              Some (site, array, addr)
            else None)
          compiled
      in
      let work = a.work in
      fun slots par me (hd : handlers) ->
        let mine =
          match me with
          | None -> true
          | Some p -> (
              match par with
              | Some i -> proc_of_iteration ~chunk ~h i = p
              | None -> p = 0)
        in
        if mine then begin
          hd.work ~par ~work;
          let sum = ref 0.0 in
          List.iter
            (fun (array, addr) ->
              sum := !sum +. hd.read ~par ~array ~addr:(addr slots))
            creads;
          List.iter
            (fun (site, array, addr) ->
              let addr = addr slots in
              hd.write ~par ~array ~addr ~v:(!sum +. hd.stamp ~site ~addr))
            cwrites
        end
  | Ir.Types.Loop l ->
      let bound e =
        check_expr env scope e;
        let sh, f = Ir.Lower.expr env scope e in
        shapes := sh :: !shapes;
        f
      in
      let lo = bound l.lo in
      let hi = bound l.hi in
      let slot = List.length scope in
      let scope' = (l.var, slot) :: scope in
      let body =
        List.map (compile_stmt cx env scope' ~chunk ~h shapes prog) l.body
      in
      let parallel = l.parallel in
      let deeper = List.exists has_parallel l.body in
      (* at the (unique) parallel loop, skip foreign iterations
         wholesale - everything beneath belongs to the owner *)
      let prune = parallel && not deeper in
      (* a serial loop above the parallel loop carries cross-processor
         dependences (its iterations, and the serial statements among
         its children, are ordered against every processor's parallel
         work), so every processor syncs after each child - trip counts
         at these levels are identical across processors, so the sync
         counts align *)
      let sync_after = (not parallel) && deeper in
      fun slots par me hd ->
        let lo = lo slots and hi = hi slots in
        for v = lo to hi do
          let skip =
            prune
            &&
            match me with
            | Some p -> proc_of_iteration ~chunk ~h v <> p
            | None -> false
          in
          if not skip then begin
            slots.(slot) <- v;
            let par = if parallel then Some v else par in
            List.iter
              (fun f ->
                f slots par me hd;
                if sync_after then hd.sync ())
              body
          end
        done

let phase (prog : Ir.Types.program) (env : Env.t) (plan : Distribution.plan) k
    (ph : Ir.Types.phase) : t =
  let ph = Ir.Normalize.phase ph in
  let chunk = plan.chunk.(k) in
  let h = plan.h in
  let shapes = ref [] in
  let nest = Ir.Types.Loop ph.nest in
  let cx = Ir.Lower.context prog env in
  let body = compile_stmt cx env [] ~chunk ~h shapes prog nest in
  let parallel = has_parallel nest in
  {
    phase_name = ph.phase_name;
    parallel;
    nslots = Ir.Lower.depth nest;
    shapes = List.rev !shapes;
    sweep =
      (fun ~slots ~me hd ->
        match me with
        (* a phase with no parallel loop runs wholly on processor 0 *)
        | Some p when p <> 0 && not parallel -> ()
        | _ -> body slots None me hd);
  }

let program (prog : Ir.Types.program) (env : Env.t) (plan : Distribution.plan)
    : t list =
  List.mapi (fun k ph -> phase prog env plan k ph) prog.phases
