(* Differential tests for the closed-form set algebra (Lattice) and
   the descriptor-level facade (Setalg).

   Every closed-form answer - cardinality, bounds, membership, subset
   and disjointness verdicts, union volume, per-processor ownership
   intersection, progression-window hit counts - is cross-checked
   against brute-force enumeration on small extents, for all three
   distribution kinds (BLOCK, CYCLIC, BLOCK-CYCLIC).  Three-valued
   verdicts are checked for soundness: a Yes/No must agree with the
   oracle, an Unknown is merely counted.  Overflow guards get targeted
   regression cases at the 2^62 boundary. *)

open Symbolic

let count = 300

module IntSet = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Brute-force oracle: expand a raw (count, stride) generator list. *)

let expand ~base dims =
  let rec go acc = function
    | [] -> acc
    | (c, s) :: rest ->
        let acc' =
          List.concat_map
            (fun x -> List.init c (fun k -> x + (k * s)))
            acc
        in
        go acc' rest
  in
  IntSet.of_list (go [ base ] dims)

let gen_dims =
  QCheck.Gen.(
    let* n = int_range 0 3 in
    list_repeat n
      (pair (int_range 1 6) (oneofl [ -7; -3; -2; -1; 0; 1; 2; 3; 4; 5; 8; 12 ])))

let gen_box =
  QCheck.Gen.(
    let* base = int_range (-30) 30 in
    let* dims = gen_dims in
    return (base, dims))

let arb_box = QCheck.make ~print:(fun (b, ds) ->
    Printf.sprintf "base=%d dims=[%s]" b
      (String.concat ";" (List.map (fun (c, s) -> Printf.sprintf "(%d,%d)" c s) ds)))
    gen_box

let arb_box2 = QCheck.pair arb_box arb_box

let box_of (base, dims) = Lattice.make ~base dims

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* ------------------------------------------------------------------ *)
(* Box algebra vs the oracle. *)

let card_exact =
  prop "card/bounds exact vs enumeration" arb_box (fun (base, dims) ->
      let set = expand ~base dims in
      match box_of (base, dims) with
      | None -> IntSet.is_empty set || QCheck.Test.fail_report "empty for non-empty set"
      | Some b ->
          let ok_card =
            match Lattice.card b with
            | Some n -> n = IntSet.cardinal set
            | None -> true
          in
          let ok_bounds =
            Lattice.lo b = IntSet.min_elt set && Lattice.hi b = IntSet.max_elt set
          in
          let ok_interval =
            match Lattice.interval b with
            | Some (l, h) ->
                l = IntSet.min_elt set && h = IntSet.max_elt set
                && IntSet.cardinal set = h - l + 1
            | None -> IntSet.cardinal set <> IntSet.max_elt set - IntSet.min_elt set + 1
          in
          if not ok_card then QCheck.Test.fail_report "cardinality mismatch";
          if not ok_bounds then QCheck.Test.fail_report "bounds mismatch";
          if not ok_interval then QCheck.Test.fail_report "intervality mismatch";
          true)

let mem_sound =
  prop "mem sound vs enumeration" arb_box (fun (base, dims) ->
      let set = expand ~base dims in
      match box_of (base, dims) with
      | None -> true
      | Some b ->
          let lo = IntSet.min_elt set - 3 and hi = IntSet.max_elt set + 3 in
          let ok = ref true in
          for x = lo to hi do
            match Lattice.mem b x with
            | Lattice.Yes -> if not (IntSet.mem x set) then ok := false
            | Lattice.No -> if IntSet.mem x set then ok := false
            | Lattice.Unknown -> ()
          done;
          !ok)

let subset_sound =
  prop "subset sound vs enumeration" arb_box2 (fun (ba, bb) ->
      match (box_of ba, box_of bb) with
      | Some a, Some b ->
          let sa = expand ~base:(fst ba) (snd ba)
          and sb = expand ~base:(fst bb) (snd bb) in
          let truth = IntSet.subset sa sb in
          (match Lattice.subset a b with
          | Lattice.Yes -> truth
          | Lattice.No -> not truth
          | Lattice.Unknown -> true)
      | _ -> true)

let disjoint_sound =
  prop "disjoint sound vs enumeration" arb_box2 (fun (ba, bb) ->
      match (box_of ba, box_of bb) with
      | Some a, Some b ->
          let sa = expand ~base:(fst ba) (snd ba)
          and sb = expand ~base:(fst bb) (snd bb) in
          let truth = IntSet.is_empty (IntSet.inter sa sb) in
          (match Lattice.disjoint a b with
          | Lattice.Yes -> truth
          | Lattice.No -> not truth
          | Lattice.Unknown -> true)
      | _ -> true)

let union_card_exact =
  prop "union_card exact vs enumeration"
    (QCheck.list_of_size (QCheck.Gen.int_range 0 4) arb_box)
    (fun raws ->
      let boxes = List.filter_map box_of raws in
      let sets =
        List.filter_map
          (fun (base, dims) ->
            let s = expand ~base dims in
            if IntSet.is_empty s then None else Some s)
          raws
      in
      let union = List.fold_left IntSet.union IntSet.empty sets in
      match Lattice.union_card boxes with
      | Some n -> n = IntSet.cardinal union
      | None -> true)

(* ------------------------------------------------------------------ *)
(* Interval lists. *)

let gen_ivs =
  QCheck.Gen.(
    let* n = int_range 0 5 in
    list_repeat n (pair (int_range (-20) 20) (int_range 0 6))
    >|= List.map (fun (l, w) -> (l, l + w)))

let arb_ivs2 = QCheck.make (QCheck.Gen.pair gen_ivs gen_ivs)

let set_of_ivs ivs =
  List.fold_left
    (fun acc (l, h) ->
      let rec go acc x = if x > h then acc else go (IntSet.add x acc) (x + 1) in
      go acc l)
    IntSet.empty ivs

let iv_ops =
  prop "interval-list union/inter/subtract vs sets" arb_ivs2 (fun (a, b) ->
      let sa = set_of_ivs a and sb = set_of_ivs b in
      let check op truth =
        let got = set_of_ivs (op (Lattice.Iv.norm a) (Lattice.Iv.norm b)) in
        IntSet.equal got truth
      in
      check Lattice.Iv.union (IntSet.union sa sb)
      && check Lattice.Iv.inter (IntSet.inter sa sb)
      && check Lattice.Iv.subtract (IntSet.diff sa sb)
      && Lattice.Iv.total (Lattice.Iv.norm a) = IntSet.cardinal sa)

(* ------------------------------------------------------------------ *)
(* Ownership: owner must equal Distribution.proc_of; the segment walk
   must partition the range into constant-owner runs, for all three
   distribution kinds. *)

let gen_own =
  QCheck.Gen.(
    let* h = int_range 1 5 in
    let* base = int_range (-4) 8 in
    let* block = int_range 1 7 in
    let* kind = int_range 0 3 in
    let* period = int_range 1 40 in
    let* mirror = int_range 1 40 in
    let period, mirror =
      match kind with
      | 0 -> (None, None) (* BLOCK (wide block) / BLOCK-CYCLIC *)
      | 1 -> (Some period, None) (* periodic BLOCK-CYCLIC *)
      | 2 -> (Some period, Some (min mirror period)) (* mirrored fold *)
      | _ -> (None, Some mirror)
    in
    return Lattice.Own.{ h; base; block; period; mirror })

let arb_own = QCheck.make gen_own

let own_vs_distribution =
  prop "Own.owner = Distribution.proc_of on all kinds" arb_own (fun o ->
      let layout =
        Ilp.Distribution.
          {
            array = "A";
            first_phase = 0;
            last_phase = 0;
            base = o.Lattice.Own.base;
            block = o.Lattice.Own.block;
            period = o.Lattice.Own.period;
            mirror = o.Lattice.Own.mirror;
            halo = 0;
          }
      in
      let plan =
        Ilp.Distribution.
          {
            h = o.Lattice.Own.h;
            chunk = [| 1 |];
            layouts = [ layout ];
            privatized = [];
          }
      in
      let ok = ref true in
      for addr = -10 to 60 do
        if
          Lattice.Own.owner o addr
          <> Ilp.Distribution.proc_of plan layout ~addr
        then ok := false
      done;
      !ok)

let own_segments =
  prop "Own.segments partitions into constant runs" arb_own (fun o ->
      match Lattice.Own.segments o ~lo:(-8) ~hi:55 ~budget:1000 with
      | None -> QCheck.Test.fail_report "budget exhausted on tiny range"
      | Some segs ->
          let x = ref (-8) in
          List.iter
            (fun (l, h, p) ->
              if l <> !x || h < l then QCheck.Test.fail_report "not a partition";
              for a = l to h do
                if Lattice.Own.owner o a <> p then
                  QCheck.Test.fail_report "owner not constant on run"
              done;
              x := h + 1)
            segs;
          !x = 56)

(* ------------------------------------------------------------------ *)
(* Progression-window hits. *)

let window_hits_exact =
  prop "window_hits vs brute force"
    (QCheck.make
       QCheck.Gen.(
         tup5 (int_range (-30) 30) (int_range (-9) 9) (int_range 0 12)
           (int_range 0 8) gen_ivs))
    (fun (a, d, n, len, ivs) ->
      let set = Lattice.Iv.norm ivs in
      let brute = ref 0 in
      for i = 0 to n - 1 do
        for x = a + (i * d) to a + (i * d) + len - 1 do
          if Lattice.Iv.mem set x then incr brute
        done
      done;
      Lattice.window_hits ~a ~d ~n ~len (Array.of_list set) = !brute)

(* The indexed count against the linear per-interval sum, across every
   scale up to the saturation limit: sets placed near 0, near +-2^61
   and against max_int / min_int, progressions with zero, negative and
   huge strides, and empty counts and windows. *)
let window_hits_indexed =
  let open QCheck.Gen in
  let sat = Lattice.Safe.add_sat in
  let scale =
    oneof
      [
        int_range 0 40;
        int_range 0 (1 lsl 20);
        int_range 0 (1 lsl 45);
        int_range 0 (1 lsl 61);
      ]
  in
  let signed = map2 (fun neg x -> if neg then -x else x) bool scale in
  let origin =
    oneofl
      [ 0; -1000; 1 lsl 61; -(1 lsl 61); max_int - (1 lsl 20); min_int + 5 ]
  in
  let gen_set =
    let* o = origin in
    let* k = int_range 0 8 in
    let* steps = list_repeat k (pair scale scale) in
    let _, ivs =
      List.fold_left
        (fun (x, acc) (gap, w) ->
          let l = sat x gap in
          let h = sat l w in
          (sat h 2, (l, h) :: acc))
        (o, []) steps
    in
    return (o, Lattice.Iv.norm ivs)
  in
  let gen =
    let* o, set = gen_set in
    let* a = map (sat o) signed in
    let* d = oneof [ return 0; int_range (-9) 9; signed ] in
    let* n = oneof [ return 0; int_range 1 12; scale ] in
    let* len = oneof [ return 0; int_range 1 12; scale ] in
    return (a, d, n, len, set)
  in
  prop "window_hits indexed = linear per-interval sum"
    (QCheck.make
       ~print:(fun (a, d, n, len, set) ->
         Printf.sprintf "a=%d d=%d n=%d len=%d set=[%s]" a d n len
           (String.concat "; "
              (List.map (fun (l, h) -> Printf.sprintf "%d..%d" l h) set)))
       gen)
    (fun (a, d, n, len, set) ->
      let linear =
        List.fold_left
          (fun acc iv ->
            Lattice.Safe.add_sat acc
              (Lattice.window_hits_interval ~a ~d ~n ~len iv))
          0 set
      in
      Lattice.window_hits ~a ~d ~n ~len (Array.of_list set) = linear)

(* ------------------------------------------------------------------ *)
(* Shape extraction vs the enumeration oracle: the symbolic event
   multiset must equal Enumerate.iter's event-for-event on every
   registry kernel at its seed size (tfft2's loop-dependent strides and
   trisolve's triangular bounds exercise the partial evaluator). *)

let event_multiset_enum prog env ph =
  let tbl = Hashtbl.create 1024 in
  let bump k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  Ir.Enumerate.iter prog env ph ~f:(fun ~par ~array ~addr access ~work ->
      bump (par, array, addr, access, work));
  tbl

let event_multiset_shape (t : Ir.Shape.t) =
  let tbl = Hashtbl.create 1024 in
  let bump n k =
    Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let rec tuples base = function
    | [] -> [ base ]
    | (c, s) :: rest ->
        List.concat (List.init c (fun k -> tuples (base + (k * s)) rest))
  in
  List.iter
    (fun (s : Ir.Shape.site) ->
      let addrs = tuples s.base s.seq in
      match s.par with
      | Ir.Shape.Strided st ->
          for i = 0 to t.Ir.Shape.par_n - 1 do
            List.iter
              (fun a -> bump 1 (Some i, s.array, a + (i * st), s.access, s.work))
              addrs
          done
      | Ir.Shape.Fixed i ->
          List.iter (fun a -> bump 1 (Some i, s.array, a, s.access, s.work)) addrs
      | Ir.Shape.Outside ->
          List.iter (fun a -> bump 1 (None, s.array, a, s.access, s.work)) addrs)
    t.Ir.Shape.sites;
  tbl

let shape_matches_oracle () =
  List.iter
    (fun (e : Codes.Registry.entry) ->
      let env = e.env_of_size e.default_size in
      List.iter
        (fun (ph : Ir.Types.phase) ->
          match Ir.Shape.of_phase e.program env ph with
          | None ->
              Alcotest.failf "%s/%s: outside fragment at seed size" e.name
                ph.phase_name
          | Some t ->
              let want = event_multiset_enum e.program env ph in
              let got = event_multiset_shape t in
              let agree =
                Hashtbl.length want = Hashtbl.length got
                && Hashtbl.fold
                     (fun k n acc -> acc && Hashtbl.find_opt got k = Some n)
                     want true
              in
              if not agree then
                Alcotest.failf "%s/%s: symbolic events <> enumerated" e.name
                  ph.phase_name)
        e.program.phases)
    Codes.Registry.all

let shape_work_matches () =
  List.iter
    (fun (e : Codes.Registry.entry) ->
      let env = e.env_of_size e.default_size in
      List.iter
        (fun (ph : Ir.Types.phase) ->
          let enum = ref 0 in
          Ir.Enumerate.iter e.program env ph
            ~f:(fun ~par:_ ~array:_ ~addr:_ _ ~work -> enum := !enum + work);
          match Ir.Shape.of_phase e.program env ph with
          | None -> Alcotest.failf "%s/%s: outside fragment" e.name ph.phase_name
          | Some t ->
              Alcotest.(check int)
                (Printf.sprintf "%s/%s work" e.name ph.phase_name)
                !enum (Ir.Shape.total_work t))
        e.program.phases)
    Codes.Registry.all

(* ------------------------------------------------------------------ *)
(* Overflow boundaries (satellite): checked ops raise, saturating ops
   clamp, and box construction near 2^62 degrades to None/Unknown
   rather than wrapping. *)

let big = max_int / 2

let overflow_boundaries () =
  Alcotest.check_raises "add overflow" Lattice.Overflow (fun () ->
      ignore (Lattice.Safe.add max_int 1));
  Alcotest.check_raises "mul overflow" Lattice.Overflow (fun () ->
      ignore (Lattice.Safe.mul big 3));
  Alcotest.(check int) "add at boundary" max_int (Lattice.Safe.add (max_int - 1) 1);
  Alcotest.(check int) "mul at boundary" (big * 2) (Lattice.Safe.mul big 2);
  Alcotest.(check int) "add_sat clamps" max_int (Lattice.Safe.add_sat max_int 5);
  Alcotest.(check int) "mul_sat clamps" max_int (Lattice.Safe.mul_sat big 3);
  Alcotest.(check int) "mul_sat sign" min_int (Lattice.Safe.mul_sat big (-3));
  (* A box spanning nearly the whole int range: bounds stay exact,
     cardinality answers must not wrap. *)
  (match Lattice.make ~base:0 [ (1 lsl 31, 1 lsl 31) ] with
  | Some b ->
      Alcotest.(check int) "huge hull hi" (((1 lsl 31) - 1) * (1 lsl 31)) (Lattice.hi b);
      Alcotest.(check (option int)) "huge card" (Some (1 lsl 31)) (Lattice.card b)
  | None -> Alcotest.fail "huge box should construct");
  (* Overflowing normalization degrades, never wraps. *)
  (match Lattice.make ~base:(max_int - 10) [ (4, max_int / 2) ] with
  | exception Lattice.Overflow -> ()
  | Some b -> (
      match Lattice.card b with
      | Some n -> Alcotest.fail (Printf.sprintf "wrapped cardinality %d" n)
      | None -> ())
  | None -> Alcotest.fail "nonempty box became empty")

let saturating_window () =
  (* n * len beyond max_int: the closed form must clamp, not wrap. *)
  let n = 1 lsl 31 and len = 1 lsl 32 in
  let hits =
    Lattice.window_hits ~a:0 ~d:0 ~n ~len [| (0, max_int - 1) |]
  in
  Alcotest.(check bool) "saturates at max_int" true (hits = max_int)

let () =
  Alcotest.run "setalg"
    [
      ( "lattice",
        [
          card_exact;
          mem_sound;
          subset_sound;
          disjoint_sound;
          union_card_exact;
          iv_ops;
        ] );
      ("ownership", [ own_vs_distribution; own_segments ]);
      ("windows", [ window_hits_exact; window_hits_indexed ]);
      ( "shape",
        [
          Alcotest.test_case "events = oracle on registry" `Quick
            shape_matches_oracle;
          Alcotest.test_case "work = oracle on registry" `Quick
            shape_work_matches;
        ] );
      ( "overflow",
        [
          Alcotest.test_case "boundaries" `Quick overflow_boundaries;
          Alcotest.test_case "saturating window" `Quick saturating_window;
        ] );
    ]
