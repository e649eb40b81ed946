open Symbolic
open Types

(* Every address-by-address walk passes through here; the counter is
   the "did we enumerate at all?" probe the symbolic-coverage checks
   assert on (zero on the closed-form hot path). *)
let iter_count = Metrics.counter "enum.iter"
let exhausted_count = Metrics.counter "enum.budget_exhausted"
let fallback_events = 1 lsl 22

type budget = { stage : string; array : string; mutable left : int }

let budget ~stage ~array = { stage; array; left = fallback_events }

let iter ?budget (prog : program) (env : Env.t) (ph : phase) ~f =
  Metrics.incr iter_count;
  let ph = Normalize.phase ph in
  (* one step per loop iteration and per access event *)
  let tick =
    match budget with
    | None -> fun () -> ()
    | Some b ->
        fun () ->
          b.left <- b.left - 1;
          if b.left < 0 then begin
            Metrics.incr exhausted_count;
            raise
              (Lattice.Outside_fragment
                 (Printf.sprintf
                    "%s: enumeration fallback for %s exceeded its budget of \
                     %d events in phase %s"
                    b.stage b.array fallback_events ph.phase_name))
          end
  in
  let cx = Lower.context prog env in
  let rec stmt scope = function
    | Assign a ->
        let refs =
          List.mapi
            (fun k (r : array_ref) ->
              ( r.array,
                r.access,
                snd (Lower.addr cx scope r),
                if k = 0 then a.work else 0 ))
            a.refs
        in
        fun slots par ->
          List.iter
            (fun (array, access, addr, work) ->
              tick ();
              f ~par ~array ~addr:(addr slots) access ~work)
            refs
    | Loop l ->
        let lo = snd (Lower.expr env scope l.lo)
        and hi = snd (Lower.expr env scope l.hi) in
        let slot = List.length scope in
        let body = List.map (stmt ((l.var, slot) :: scope)) l.body in
        let parallel = l.parallel in
        fun slots par ->
          let lo = lo slots in
          let hi = hi slots in
          for v = lo to hi do
            tick ();
            slots.(slot) <- v;
            let par = if parallel then Some v else par in
            List.iter (fun s -> s slots par) body
          done
  in
  let nest = Loop ph.nest in
  (stmt [] nest) (Array.make (Lower.depth nest) 0) None

let addresses prog env ph ~array =
  let acc = ref [] in
  iter prog env ph ~f:(fun ~par:_ ~array:a ~addr access ~work:_ ->
      if String.equal a array then acc := (addr, access) :: !acc);
  List.rev !acc

let address_set prog env ph ~array =
  let tbl = Hashtbl.create 256 in
  iter prog env ph ~f:(fun ~par:_ ~array:a ~addr _ ~work:_ ->
      if String.equal a array then Hashtbl.replace tbl addr ());
  tbl

let iteration_addresses prog env ph ~array ~par =
  let acc = ref [] in
  iter prog env ph ~f:(fun ~par:p ~array:a ~addr access ~work:_ ->
      if String.equal a array && p = Some par then acc := (addr, access) :: !acc);
  List.rev !acc
