(* A fixed unit of work owned by the benchmark, timed to read the host's
   speed.

   A shared virtual machine (measured: 2 vCPUs, Intel Xeon) changes
   speed by up to 2x for minutes at a time, far beyond any bound a
   run-to-run comparison can use.  Every time metric is therefore reported at a nominal host speed:
   the raw time times [nominal / r], where [r] is the median time of this
   unit over the run.  The unit mimics the analysis' instruction mix -
   small variant trees, string-keyed maps, a hash table of a few thousand
   entries, short sorts - and shares no code with the program, so no
   change to the program can move it.  It runs between requests, in the
   benchmark's process; its collector work is paced by its own
   allocation, and its time came out the same on every workload,
   whatever the program's heap. *)

type e = Num of int | Var of string | Add of e * e | Mul of e * e

module SM = Map.Make (String)

let vars = [| "i"; "j"; "k"; "N"; "P"; "Q" |]

let rec build d s =
  if d = 0 then if s land 1 = 0 then Num (s mod 7) else Var vars.(s mod 6)
  else if s land 2 = 0 then Add (build (d - 1) ((s * 3) + 1), build (d - 1) ((s * 5) + 2))
  else Mul (build (d - 1) ((s * 7) + 3), build (d - 1) (s + 11))

(* Normalize to a polynomial: monomial name -> coefficient. *)
let rec poly = function
  | Num n -> SM.singleton "" n
  | Var v -> SM.singleton v 1
  | Add (a, b) -> SM.union (fun _ x y -> Some (x + y)) (poly a) (poly b)
  | Mul (a, b) ->
      let pa = poly a and pb = poly b in
      SM.fold
        (fun ka ca acc ->
          SM.fold
            (fun kb cb acc ->
              let k = if ka < kb then ka ^ kb else kb ^ ka in
              SM.update k
                (function None -> Some (ca * cb) | Some c -> Some (c + (ca * cb)))
                acc)
            pb acc)
        pa SM.empty

let unit_seconds () =
  let t0 = Unix.gettimeofday () in
  let seen = Hashtbl.create 4096 in
  let acc = ref 0 in
  for s = 0 to 1500 do
    let key = SM.bindings (poly (build 5 s)) in
    (match Hashtbl.find_opt seen key with
    | Some n -> acc := !acc + n
    | None -> Hashtbl.replace seen key s);
    acc := !acc + List.length (List.sort compare (List.map snd key))
  done;
  ignore (Sys.opaque_identity !acc);
  Unix.gettimeofday () -. t0

(* The unit's median time on this benchmark's reference host state
   (2-vCPU Intel Xeon VM, OCaml 5.1.1, fast phase). *)
let nominal = 0.024

(* Median of three units. *)
let sample () = Stats.median (List.init 3 (fun _ -> unit_seconds ()))
