open Symbolic

let budget = 8192

let intervals_of own ~lo ~hi =
  if lo > hi then None
  else Lattice.Own.intervals own ~lo ~hi ~budget

(* Enumerate the address offsets of the non-window sequential
   dimensions, with multiplicity (zero and duplicate strides emit
   duplicate offsets, exactly as the nest would). *)
let offsets dims =
  List.fold_left
    (fun acc (c, s) ->
      List.concat_map
        (fun off ->
          List.init c (fun k -> Lattice.Safe.add off (Lattice.Safe.mul k s)))
        acc)
    [ 0 ] dims

let per_proc ~h ~chunk ~par ~par_n ~base ~seq ~sets =
  let sets = Array.map Array.of_list sets in
  let events = Array.make h 0 and hits = Array.make h 0 in
  let empty =
    List.exists (fun (c, _) -> c <= 0) seq
    || match par with Ir.Shape.Strided _ -> par_n <= 0 | _ -> false
  in
  if empty then Some (events, hits)
  else
    try
      (* One |stride| = 1 dimension becomes the contiguous window; the
         rest are enumerated. *)
      let contig, rest =
        let rec pick acc = function
          | [] -> (None, List.rev acc)
          | (c, s) :: tl when abs s = 1 && c > 1 ->
              (Some (c, s), List.rev_append acc tl)
          | d :: tl -> pick (d :: acc) tl
        in
        pick [] seq
      in
      let len, woff =
        match contig with
        | None -> (1, 0)
        | Some (c, s) -> (c, if s = 1 then 0 else -(c - 1))
      in
      let prod =
        List.fold_left (fun a (c, _) -> Lattice.Safe.mul a c) 1 rest
      in
      if prod > budget then None
      else begin
        let offs = offsets rest in
        let add_run ~pr ~n ~d start =
          events.(pr) <-
            Lattice.Safe.add events.(pr)
              (Lattice.Safe.mul n (Lattice.Safe.mul len prod));
          List.iter
            (fun off ->
              let a = Lattice.Safe.add start (Lattice.Safe.add woff off) in
              hits.(pr) <-
                Lattice.Safe.add hits.(pr)
                  (Lattice.window_hits ~a ~d ~n ~len sets.(pr)))
            offs
        in
        match par with
        | Ir.Shape.Outside -> (
            add_run ~pr:0 ~n:1 ~d:0 base;
            Some (events, hits))
        | Ir.Shape.Fixed i ->
            let pr = i / max 1 chunk mod h in
            add_run ~pr ~n:1 ~d:0 base;
            Some (events, hits)
        | Ir.Shape.Strided s ->
            let chunk = max 1 chunk in
            let runs = (par_n + chunk - 1) / chunk in
            if runs > budget then None
            else begin
              for q = 0 to runs - 1 do
                let i0 = q * chunk in
                let n = min chunk (par_n - i0) in
                add_run ~pr:(q mod h) ~n ~d:s
                  (Lattice.Safe.add base (Lattice.Safe.mul s i0))
              done;
              Some (events, hits)
            end
      end
    with Lattice.Overflow -> None
