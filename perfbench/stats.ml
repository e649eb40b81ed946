(* Order statistics used by every metric.  Inputs are never empty in
   the benchmark's own use; the functions return [nan] rather than
   raise so a missing sample shows up as a failed check, not a crash. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> Float.nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let geomean xs =
  match xs with
  | [] -> Float.nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

let mean xs =
  match xs with
  | [] -> Float.nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* The highest order statistic with at least [beyond] samples above it:
   the value at sorted rank n-1-beyond.  [None] when there are too few
   samples for any such rank. *)
let tail ?(beyond = 10) xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n <= beyond then None else Some (a.(n - 1 - beyond), n)

(* Tail latency over items of different cost.  Pooling raw samples
   puts the tail rank wherever the slowest item's cluster happens to
   end, so it jumps between items from run to run.  Each sample is
   divided by its own item's median first; the pooled ratios are one
   homogeneous population, the tail rank never sits on a boundary
   between items, and the tail ratio scales the geometric-mean
   latency. *)
let normalized_tail ?beyond (per_item : float list list) =
  let ratios =
    List.concat_map
      (fun samples ->
        let m = median samples in
        List.map (fun x -> x /. m) samples)
      per_item
  in
  let center = geomean (List.map median per_item) in
  Option.map (fun (r, n) -> (center *. r, n)) (tail ?beyond ratios)
