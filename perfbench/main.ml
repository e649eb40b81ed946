(* perfbench: run one workload and print its metrics.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints one line per metric ("name value unit"), then, as the last
   line, one JSON object with the keys correct, attempted, failed and
   metrics.  With --trace 1 the metrics are the per-layer ones and the
   spans are written as trace-event JSON to
   _build/perfbench-trace/<workload>-<seed>.json.  Exits 2 on a bad
   argument, without printing a result. *)

module Metrics = Symbolic.Metrics

let usage () =
  prerr_endline
    ("usage: main.exe --workload {"
    ^ String.concat "|" Perfbench.Workloads.names
    ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "--workload" in
  if not (List.mem workload Perfbench.Workloads.names) then usage ();
  let seed = int "--seed" and seconds = int "--seconds" in
  let trace =
    match get "--trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  if seconds < 1 then usage ();
  let r =
    Perfbench.Measure.run ~workload ~seed ~seconds:(float_of_int seconds) ~trace ()
  in
  List.iter (fun n -> Printf.printf "# %s\n" n) r.notes;
  List.iter (fun f -> Printf.printf "failure: %s\n" f) r.failures;
  List.iter
    (fun (m : Perfbench.Measure.metric) ->
      Printf.printf "%-32s %14.6g %s\n" m.name m.value m.unit)
    r.metrics;
  if trace then begin
    let dir = Filename.concat "_build" "perfbench-trace" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (Printf.sprintf "%s-%d.json" workload seed) in
    let oc = open_out path in
    output_string oc (Perfbench.Trace.to_json ~workload r.spans);
    close_out oc;
    Printf.printf "trace: %s (%d spans)\n" path (List.length r.spans)
  end;
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    (r.failed = 0) r.attempted r.failed
    (String.concat ","
       (List.map
          (fun (m : Perfbench.Measure.metric) ->
            Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" m.name
              (Metrics.json_float m.value) m.unit)
          r.metrics))
