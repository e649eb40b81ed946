(* Tests of the benchmark itself: its metric vocabulary matches
   BENCHMARK.json, its counts and shares repeat exactly under one seed,
   and the seed moves the corpus-warm inputs and nothing else. *)

open Perfbench

let name_ok s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let unit_ok s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
         | _ -> false)
       s

let all_metrics = Measure.end_to_end @ Measure.per_layer

let test_grammar () =
  List.iter
    (fun (n, u) ->
      Alcotest.(check bool) ("name " ^ n) true (name_ok n);
      Alcotest.(check bool) ("unit of " ^ n) true (unit_ok u))
    all_metrics;
  List.iter
    (fun w -> Alcotest.(check bool) ("workload " ^ w) true (name_ok w))
    Workloads.names;
  let names = List.map fst all_metrics @ Workloads.names in
  Alcotest.(check int) "names are unique"
    (List.length names)
    (List.length (List.sort_uniq compare names))

(* BENCHMARK.json lists exactly the metrics the code reports, with the
   same units, and exactly the workloads. *)
let test_benchmark_json () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let flat =
    String.concat ""
      (String.split_on_char ' ' (String.concat "" (String.split_on_char '\n' text)))
  in
  let contains sub =
    let n = String.length sub and m = String.length flat in
    let rec go i = i + n <= m && (String.sub flat i n = sub || go (i + 1)) in
    go 0
  in
  let count sub =
    let n = String.length sub in
    let rec go i acc =
      if i + n > String.length flat then acc
      else go (i + 1) (if String.sub flat i n = sub then acc + 1 else acc)
    in
    go 0 0
  in
  List.iter
    (fun (n, u) ->
      Alcotest.(check bool)
        ("BENCHMARK.json has " ^ n)
        true
        (contains (Printf.sprintf "{\"name\":\"%s\",\"unit\":\"%s\"," n u)))
    all_metrics;
  Alcotest.(check int) "no other metric" (List.length all_metrics) (count "\"unit\":");
  List.iter
    (fun w ->
      Alcotest.(check bool)
        ("BENCHMARK.json has workload " ^ w)
        true
        (contains (Printf.sprintf "{\"name\":\"%s\",\"why\":" w)))
    Workloads.names;
  Alcotest.(check int) "no other workload" (List.length Workloads.names) (count "\"why\":")

(* large-symbolic is the cheapest workload that exercises the counted
   layers; one pass per run keeps the test short. *)
let run trace =
  Measure.run ~setups:1 ~workload:"large-symbolic" ~seed:7 ~seconds:0. ~trace ()

let values names (r : Measure.result) =
  List.filter_map
    (fun (m : Measure.metric) ->
      if List.mem m.name names then Some (m.name, m.value) else None)
    r.metrics

let test_repeat () =
  let shares = [ "exact_share"; "ok_share"; "plan_efficiency" ] in
  let a = run false and b = run false in
  Alcotest.(check (list (pair string (float 0.)))) "shares" (values shares a) (values shares b);
  Alcotest.(check int) "no failure" 0 a.failed;
  let counts =
    List.filter_map
      (fun (n, u) -> if u = "count" then Some n else None)
      Measure.per_layer
  in
  let a = run true and b = run true in
  Alcotest.(check (list (pair string (float 0.)))) "counts" (values counts a) (values counts b);
  Alcotest.(check bool) "counts were measured" true
    (List.assoc "symbolic.expr_norms" (values counts a) > 0.)

let inputs name seed =
  match Workloads.find name ~seed with
  | Some w -> List.map (fun (it : Workloads.item) -> it.name) (w.setup ())
  | None -> Alcotest.fail name

let test_seed () =
  Alcotest.(check bool) "same seed, same corpus" true
    (Workloads.corpus ~seed:1 = Workloads.corpus ~seed:1);
  Alcotest.(check bool) "another seed, another corpus" false
    (Workloads.corpus ~seed:1 = Workloads.corpus ~seed:2);
  List.iter
    (fun name ->
      Alcotest.(check (list string)) (name ^ " ignores the seed") (inputs name 1) (inputs name 2))
    [ "registry-cold"; "large-symbolic" ];
  Alcotest.(check bool) "corpus-warm items follow the seed" false
    (inputs "corpus-warm" 1 = inputs "corpus-warm" 2)

let () =
  Alcotest.run "perfbench"
    [
      ( "metrics",
        [
          Alcotest.test_case "name grammar and units" `Quick test_grammar;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick test_benchmark_json;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same counts and shares" `Slow test_repeat;
          Alcotest.test_case "the seed moves corpus-warm only" `Quick test_seed;
        ] );
    ]
