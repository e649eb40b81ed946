(* The lowered enumerator against a direct interpreter of the nest.

   [reference_iter] below is the enumeration walk as a plain
   interpreter: a fresh environment binding per loop iteration and
   every subscript, bound and extent evaluated by [Env.eval] in
   rational arithmetic.  [Ir.Enumerate.iter] runs on the integer
   closures of [Ir.Lower] instead; the two must produce the same event
   stream - parallel iteration, array, flat address, access and work,
   in order - and raise the same exception at the same event. *)

open Symbolic
open Ir.Types

let reference_iter (prog : program) (env : Env.t) (ph : phase) ~f =
  let ph = Ir.Normalize.phase ph in
  let dims_of = Hashtbl.create 8 in
  let eval_dims env name =
    match Hashtbl.find_opt dims_of name with
    | Some d -> d
    | None ->
        let decl = array_decl prog name in
        let d =
          match List.rev decl.dims with
          | [] -> []
          | _last :: rest_rev ->
              List.rev (0 :: List.map (Env.eval env) rest_rev)
        in
        Hashtbl.add dims_of name d;
        d
  in
  let flat dims idx =
    let rec go idx dims =
      match (idx, dims) with
      | [ i ], [ _ ] -> i
      | i :: idx, d :: dims -> i + (d * go idx dims)
      | [], [] -> 0
      | _ -> invalid_arg "rank mismatch"
    in
    go idx dims
  in
  let env = Env.ephemeral env in
  let rec walk env par = function
    | Assign a ->
        List.iteri
          (fun k (r : array_ref) ->
            let dims = eval_dims env r.array in
            let idx = List.map (Env.eval env) r.index in
            f ~par ~array:r.array ~addr:(flat dims idx) r.access
              ~work:(if k = 0 then a.work else 0))
          a.refs
    | Loop l ->
        let lo = Env.eval env l.lo in
        let hi = Env.eval env l.hi in
        for v = lo to hi do
          let env = Env.add l.var v env in
          let par = if l.parallel then Some v else par in
          List.iter (walk env par) l.body
        done
  in
  walk env None (Loop ph.nest)

type event = int option * string * int * access * int

exception Cap

(* The event stream up to [cap] events, and how the walk ended. *)
let trace ?(cap = 200_000) iter prog env ph =
  let evs = ref [] and n = ref 0 in
  let outcome =
    match
      iter prog env ph ~f:(fun ~par ~array ~addr access ~work ->
          if !n >= cap then raise Cap;
          incr n;
          evs := ((par, array, addr, access, work) : event) :: !evs)
    with
    | () -> "completed"
    | exception Cap -> "capped"
    | exception e -> "raised " ^ Printexc.to_string e
  in
  (List.rev !evs, outcome)

let lowered prog env ph ~f = Ir.Enumerate.iter prog env ph ~f

let same_walk prog env ph =
  let re, ro = trace reference_iter prog env ph in
  let le, lo = trace lowered prog env ph in
  if ro <> lo then
    QCheck.Test.fail_reportf
      "phase %s: reference %s after %d events, lowered %s after %d"
      ph.phase_name ro (List.length re) lo (List.length le);
  if re <> le then
    QCheck.Test.fail_reportf "phase %s: event streams differ" ph.phase_name;
  true

let same_program prog env = List.for_all (same_walk prog env) prog.phases

(* ------------------------------------------------------------------ *)
(* Generated programs and the registry *)

let count = 120

let fuzz_programs =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name:"Fuzz.Gen programs: same event stream"
       (QCheck.make
          ~print:(fun (seed, index, _) -> Printf.sprintf "seed %d index %d" seed index)
          QCheck.Gen.(triple (int_range 0 1000) (int_range 0 200) int))
       (fun (seed, index, salt) ->
         let prog = Fuzz.Gen.program Fuzz.Gen.default ~seed ~index in
         same_program prog (Fuzz.Gen.midpoint_env prog)
         && same_program prog
              (Assume.sample
                 ~state:(Random.State.make [| seed; index; salt |])
                 prog.params)))

let registry_kernels () =
  List.iter
    (fun (e : Codes.Registry.entry) ->
      List.iter
        (fun size ->
          ignore (same_program e.program (e.env_of_size size)))
        [ e.default_size; 2 ])
    Codes.Registry.all;
  ignore (same_program Codes.Tfft2.fig1_program (Codes.Tfft2.env ~p:3 ~q:2))

(* ------------------------------------------------------------------ *)
(* Exceptions at the same event *)

let b = Ir.Build.int
let v = Ir.Build.var

let one_phase ?(arrays = [ Ir.Build.array "A" [ b (1 lsl 40) ] ]) ?(params = []) body
    =
  Ir.Build.program ~name:"case"
    ~params:(Assume.of_list params)
    ~arrays
    [ Ir.Build.phase "P" body ]

let expect_same ~outcome ~events prog env =
  let ph = List.hd prog.phases in
  let re, ro = trace reference_iter prog env ph in
  let le, lo = trace lowered prog env ph in
  Alcotest.(check string) "reference outcome" outcome ro;
  Alcotest.(check string) "lowered outcome" outcome lo;
  Alcotest.(check int) "reference events before it" events (List.length re);
  Alcotest.(check int) "lowered events before it" events (List.length le);
  Alcotest.(check bool) "same events" true (re = le)

let fractional_coefficient () =
  (* A(i/2): i = 0 is fine, i = 1 evaluates to 1/2 *)
  let prog =
    one_phase
      Ir.Build.(
        do_ "i" ~lo:(int 0) ~hi:(int 5) [ assign [ read "A" [ var "i" / int 2 ] ] ])
  in
  expect_same
    ~outcome:(Printf.sprintf "raised %s"
                (Printexc.to_string (Expr.Non_integral "value 1/2")))
    ~events:1 prog Env.empty

let unbound_inside_loop () =
  (* the inner loop is empty for i = 0, so M is first needed at i = 1,
     after the two events of i = 0 and the one of i = 1's first ref *)
  let prog =
    one_phase
      Ir.Build.(
        do_ "i" ~lo:(int 0) ~hi:(int 3)
          [
            assign [ read "A" [ var "i" ] ];
            do_ "j" ~lo:(int 1) ~hi:(var "i")
              [ assign [ read "A" [ var "M" + var "j" ] ] ];
            assign [ write "A" [ var "i" ] ];
          ])
  in
  expect_same
    ~outcome:(Printf.sprintf "raised %s" (Printexc.to_string (Env.Unbound "M")))
    ~events:3 prog Env.empty

let overflow_near_limit () =
  (* N*i with N = 2^60: i = 4 makes 2^62, one past max_int *)
  let prog =
    one_phase
      Ir.Build.(
        do_ "i" ~lo:(int 0) ~hi:(int 7)
          [ assign [ read "A" [ var "N" * var "i" ] ] ])
  in
  expect_same
    ~outcome:(Printf.sprintf "raised %s" (Printexc.to_string Qnum.Overflow))
    ~events:4 prog
    (Env.of_list [ ("N", 1 lsl 60) ])

let overflow_under_cancellation () =
  (* N*i - M*i with N - M = 1 collapses to the small term i, but the
     interpretation overflows on N*i at i = 4: the lowering must raise
     there too, not return 4 *)
  let e = Ir.Build.((var "N" * var "i") - (var "M" * var "i")) in
  let prog =
    one_phase Ir.Build.(do_ "i" ~lo:(int 0) ~hi:(int 7) [ assign [ read "A" [ e ] ] ])
  in
  expect_same
    ~outcome:(Printf.sprintf "raised %s" (Printexc.to_string Qnum.Overflow))
    ~events:4 prog
    (Env.of_list [ ("N", (1 lsl 60) + 1); ("M", 1 lsl 60) ])

let empty_loop_body_would_raise () =
  let prog =
    one_phase
      Ir.Build.(
        do_ "i" ~lo:(int 1) ~hi:(int 0)
          [ assign [ read "A" [ (var "i" / int 2) + var "M" ] ] ])
  in
  expect_same ~outcome:"completed" ~events:0 prog Env.empty

let extent_fails_at_first_reference () =
  (* B's leading extent mentions an unbound K: the first reference to
     B raises, after A's event *)
  let prog =
    one_phase
      ~arrays:[ Ir.Build.array "A" [ b 100 ]; Ir.Build.array "B" [ v "K"; b 4 ] ]
      Ir.Build.(
        do_ "i" ~lo:(int 0) ~hi:(int 3)
          [ assign [ read "A" [ var "i" ]; write "B" [ var "i"; int 0 ] ] ])
  in
  expect_same
    ~outcome:(Printf.sprintf "raised %s" (Printexc.to_string (Env.Unbound "K")))
    ~events:1 prog Env.empty

(* ------------------------------------------------------------------ *)
(* The fallback budget *)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let budget_raises () =
  (* 2^21 + 1 iterations of one access each: 2^22 + 2 steps *)
  let prog =
    one_phase
      Ir.Build.(
        do_ "i" ~lo:(int 0) ~hi:(int (1 lsl 21)) [ assign [ read "A" [ var "i" ] ] ])
  in
  let ph = List.hd prog.phases in
  let budget = Ir.Enumerate.budget ~stage:"liveness" ~array:"A" in
  let events = ref 0 in
  match
    Ir.Enumerate.iter ~budget prog Env.empty ph
      ~f:(fun ~par:_ ~array:_ ~addr:_ _ ~work:_ -> incr events)
  with
  | () -> Alcotest.fail "a walk of 2^22 + 2 steps did not trip the budget"
  | exception Lattice.Outside_fragment msg ->
      Alcotest.(check int) "events before the trip" (1 lsl 21) !events;
      List.iter
        (fun part ->
          Alcotest.(check bool) ("message names " ^ part) true (contains msg part))
        [ "liveness"; "A"; string_of_int Ir.Enumerate.fallback_events; "phase P" ]

let exhausted () =
  let s = Metrics.snapshot () in
  Option.value ~default:0 (List.assoc_opt "enum.budget_exhausted" s.counters)

let no_budget_trip name f =
  let before = exhausted () in
  f ();
  Alcotest.(check int) (name ^ ": fallback budget never trips") before (exhausted ())

let registry_within_budget () =
  List.iter
    (fun (e : Codes.Registry.entry) ->
      no_budget_trip e.name (fun () ->
          Probe.with_seed 17 (fun () ->
              Core.Artifact.clear_all ();
              let t =
                Core.Pipeline.run e.program ~env:(e.env_of_size e.default_size) ~h:4
              in
              Alcotest.(check bool) (e.name ^ " not degraded") false
                (Core.Pipeline.degraded t);
              ignore (Core.Pipeline.simulate t);
              ignore (Core.Pipeline.simulate_baseline t);
              ignore (Dsmsim.Validate.run t.lcg t.plan))))
    Codes.Registry.all

let fuzz_within_budget () =
  (* the first programs of the CI campaign (seed 42), at each width *)
  for index = 0 to 59 do
    let prog = Fuzz.Gen.program Fuzz.Gen.default ~seed:42 ~index in
    let env = Fuzz.Gen.midpoint_env prog in
    List.iter
      (fun h ->
        no_budget_trip (Printf.sprintf "fuzz[%d] H=%d" index h) (fun () ->
            let t = Core.Pipeline.run prog ~env ~h in
            ignore (Core.Pipeline.simulate t)))
      [ 2; 4; 8 ]
  done

let large_extent_degrades () =
  (* matmul at 2^30 in Auto mode: liveness leaves the fragment, the
     fallback runs out of budget, and the LCG stage degrades instead of
     enumerating ~2^60 events *)
  let e = Codes.Registry.find "matmul" in
  let t = Core.Pipeline.run e.program ~env:(e.env_of_size 30) ~h:1024 in
  Alcotest.(check bool) "degraded" true (Core.Pipeline.degraded t);
  Alcotest.(check bool) "LCG-FAIL names the budget" true
    (List.exists
       (fun (d : Core.Diag.t) ->
         d.code = "LCG-FAIL" && contains d.message "exceeded its budget")
       (Core.Pipeline.diagnostics t))

let () =
  Alcotest.run "lower"
    [
      ( "differential",
        [
          fuzz_programs;
          Alcotest.test_case "registry kernels" `Quick registry_kernels;
        ] );
      ( "same exception, same event",
        [
          Alcotest.test_case "fractional coefficient" `Quick fractional_coefficient;
          Alcotest.test_case "unbound parameter inside a loop" `Quick
            unbound_inside_loop;
          Alcotest.test_case "affine overflow near 2^62" `Quick overflow_near_limit;
          Alcotest.test_case "overflow under cancellation" `Quick
            overflow_under_cancellation;
          Alcotest.test_case "empty loop, raising body" `Quick
            empty_loop_body_would_raise;
          Alcotest.test_case "extent fails at first reference" `Quick
            extent_fails_at_first_reference;
        ] );
      ( "fallback budget",
        [
          Alcotest.test_case "over budget raises Outside_fragment" `Quick
            budget_raises;
          Alcotest.test_case "nine kernels never trip it" `Quick
            registry_within_budget;
          Alcotest.test_case "fuzz campaign never trips it" `Quick
            fuzz_within_budget;
          Alcotest.test_case "2^30 degrades instead of hanging" `Quick
            large_extent_degrades;
        ] );
    ]
