(* Spans placed by the benchmark around each public stage call.

   A span records its name, start and end, the span that caused it and
   the request it belongs to, plus the [Metrics] counter deltas taken
   at the same two boundaries.  Spans stay in memory while the run
   lasts and are written out once at the end as trace-event JSON.  When
   tracing is off, [span] is a direct call. *)

module Metrics = Symbolic.Metrics

type span = {
  id : int;
  parent : int;  (** 0 for a request's root span *)
  request : int;
  name : string;
  start : float;
  stop : float;
  counts : (string * int) list;  (** non-zero counter deltas *)
}

let enabled = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_span = ref 0
let next_request = ref 0
let current_request = ref 0

let reset () =
  spans := [];
  stack := [];
  next_span := 0;
  next_request := 0;
  current_request := 0

let counters () = (Metrics.snapshot ()).counters

let delta before after =
  List.filter_map
    (fun (n, v) ->
      let d = v - Option.value (List.assoc_opt n before) ~default:0 in
      if d = 0 then None else Some (n, d))
    after

let span name f =
  if not !enabled then f ()
  else begin
    incr next_span;
    let id = !next_span in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    let c0 = counters () in
    let start = Metrics.now () in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        let stop = Metrics.now () in
        stack := List.tl !stack;
        spans :=
          {
            id;
            parent;
            request = !current_request;
            name;
            start;
            stop;
            counts = delta c0 (counters ());
          }
          :: !spans)
      f
  end

(* One request: a fresh request id and a root span named after it. *)
let request name f =
  if not !enabled then f ()
  else begin
    incr next_request;
    current_request := !next_request;
    span name f
  end

let duration s = s.stop -. s.start

(* Self time: the span's duration minus what its children cover.  The
   benchmark is single-threaded, so children of one span never overlap
   and their durations simply add. *)
let self_times (all : span list) =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    all;
  List.map
    (fun s ->
      (s, duration s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.))
    all

(* Trace-event JSON ("X" complete events, microseconds), with span
   counts under "counters" and the closing registry snapshot under
   "metrics", both in the [Metrics.to_json] vocabulary. *)
let to_json ~workload (all : span list) =
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity all in
  let us x = Metrics.json_float (1e6 *. x) in
  let event (s, self) =
    Printf.sprintf
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%s,\"dur\":%s,\"args\":{\"id\":%d,\"parent\":%d,\"request\":%d,\"self_seconds\":%s,\"counters\":{%s}}}"
      (Metrics.json_escape s.name)
      (Metrics.json_escape workload)
      (us (s.start -. t0))
      (us (duration s))
      s.id s.parent s.request (Metrics.json_float self)
      (String.concat ","
         (List.map
            (fun (n, v) -> Printf.sprintf "\"%s\":%d" (Metrics.json_escape n) v)
            s.counts))
  in
  let ordered = List.sort (fun a b -> compare a.id b.id) all in
  Printf.sprintf "{\"traceEvents\":[%s],\"metrics\":%s}\n"
    (String.concat ",\n" (List.map event (self_times ordered)))
    (Metrics.to_json (Metrics.snapshot ()))
