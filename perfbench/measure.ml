(* The measuring loop and the metrics it reports.

   One run: set the workload up [setup_reps] times (each set-up ends
   with one untimed warm-up request per item, whose outputs become the
   item's reference), then send the items' requests round-robin,
   closed-loop, until the time is up, so every item's samples spread
   over the whole run and over the host's slow and fast phases alike.

   With tracing on, passes alternate between traced and untraced, so
   the per-layer numbers and the tracing overhead come from the same
   stretch of time. *)

module W = Workloads
module Metrics = Symbolic.Metrics

type metric = { name : string; unit : string; value : float }

type result = {
  attempted : int;
  failed : int;  (** operations with at least one failed check *)
  failures : string list;  (** distinct failure messages *)
  metrics : metric list;
  notes : string list;  (** how the numbers were obtained *)
  spans : Trace.span list;
}

(* Name and unit of every metric, in report order. *)
let end_to_end =
  [
    ("analyze_ms", "ms");
    ("analyze_tail_ms", "ms");
    ("analyses_per_s", "1/s");
    ("exact_share", "share");
    ("ok_share", "share");
    ("plan_efficiency", "share");
    ("peak_mem_mb", "MB");
    ("setup_s", "s");
  ]

(* Artifact stores reported one by one ([serve.response] belongs to the
   daemon and is never reached through the public analysis calls). *)
let stores =
  [
    "env.eval";
    "probe.memo";
    "range.bounds";
    "symmetry.analyze";
    "region.addresses";
    "shape.sites";
    "phase.analyze";
    "lcg.graph";
    "lcg.halo";
    "chain.summaries";
  ]

(* Span name -> per-layer time metric. *)
let layer_spans =
  [
    ("lint", "lint.ms");
    ("lcg", "lcg.ms");
    ("model", "model.ms");
    ("solve", "solve.ms");
    ("plan", "plan.ms");
    ("comm", "comm.ms");
    ("sim", "sim.ms");
    ("validate", "validate.ms");
    ("parse", "parse.ms");
    ("report", "report.ms");
    ("compile", "compile.ms");
  ]

(* Metrics timer -> per-layer time metric. *)
let layer_timers =
  [
    ("descriptor.coalesce", "descriptor.coalesce.ms");
    ("descriptor.unionize", "descriptor.unionize.ms");
    ("range.eliminate", "descriptor.range_eliminate.ms");
  ]

(* Metrics counter -> per-layer count, per pass over the items. *)
let layer_counters =
  [
    ("env.eval_uncached", "symbolic.env_evals");
    ("probe.forall", "symbolic.probe_queries");
    ("expr.norm", "symbolic.expr_norms");
    ("symbolic.fallback", "symbolic.fallbacks");
    ("enum.addresses", "symbolic.enum_addresses");
  ]

let per_layer =
  List.map (fun (_, n) -> (n, "ms")) layer_spans
  @ List.map (fun (_, n) -> (n, "ms")) layer_timers
  @ List.map (fun (_, n) -> (n, "count")) layer_counters
  @ [
      ("comm.messages", "count");
      ("comm.words", "count");
      ("artifact.hit_rate", "share");
    ]
  @ List.map (fun s -> ("artifact." ^ s ^ ".hit_rate", "share")) stores
  @ [
      ("expr.intern.hit_rate", "share");
      ("artifact.payoff", "ratio");
      ("exec.run_ms", "ms");
      ("exec.par_ms", "ms");
      ("exec.replay_ms", "ms");
      ("exec.other_ms", "ms");
      ("exec.busy_ms", "ms");
      ("exec.wait_share", "share");
      ("exec.messages", "count");
      ("exec.words", "count");
      ("exec.remote_accesses", "count");
      ("exec.speedup", "ratio");
      ("exec.sim_gap", "share");
      ("trace.coverage", "share");
      ("trace.overhead", "ratio");
    ]

(* ------------------------------------------------------------------ *)

let peak_mem_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> Float.nan
      in
      go ())

type sample = { item : string; seconds : float; outcome : W.outcome }

(* Samples grouped by item, in item order. *)
let by_item items samples =
  List.filter_map
    (fun (it : W.item) ->
      match List.filter (fun s -> s.item = it.name) samples with
      | [] -> None
      | ss -> Some (it.name, ss))
    items

let latency_ms items samples =
  Stats.geomean
    (List.map
       (fun (_, ss) -> Stats.median (List.map (fun s -> s.seconds) ss))
       (by_item items samples))
  *. 1000.

(* Counter and cache-cell deltas over one stretch of work. *)
let cells () =
  let s = Metrics.snapshot () in
  (s.counters, s.caches, s.timers)

let counter_delta (c0, _, _) (c1, _, _) name =
  let get l = Option.value (List.assoc_opt name l) ~default:0 in
  get c1 - get c0

let cache_delta (_, k0, _) (_, k1, _) name =
  let get l = Option.value (List.assoc_opt name l) ~default:(0, 0) in
  let h1, m1 = get k1 and h0, m0 = get k0 in
  (h1 - h0, m1 - m0)

let timer_delta (_, _, t0) (_, _, t1) name =
  let get l = Option.value (List.assoc_opt name l) ~default:(0, 0.) in
  snd (get t1) -. snd (get t0)

let rate (h, m) = if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

let run ?(setups = 3) ~workload ~seed ~seconds ~trace () =
  let w =
    match W.find workload ~seed with
    | Some w -> w
    | None -> invalid_arg ("unknown workload " ^ workload)
  in
  Trace.reset ();
  Trace.enabled := false;
  let attempted = ref 0 and failed = ref 0 and failures = ref [] in
  let record item msgs =
    incr attempted;
    if msgs <> [] then begin
      incr failed;
      failures := List.map (fun m -> item ^ ": " ^ m) msgs @ !failures
    end
  in
  let reference = Hashtbl.create 64 in
  (* Outputs are kept as digests: holding every rendered report would
     make the benchmark's own bookkeeping grow the peak memory. *)
  let one (it : W.item) =
    it.prepare ();
    let t0 = Metrics.now () in
    let check = Trace.request "request" it.request in
    let dt = Metrics.now () -. t0 in
    let o = check () in
    (dt, { o with core = Digest.string o.core })
  in
  (* host speed: the reference unit's time, read before set-up, about
     once a second between requests, and at the end *)
  let host = ref [] and last_host = ref 0. in
  let read_host () =
    host := Reference.sample () :: !host;
    last_host := Metrics.now ()
  in
  read_host ();
  let items = ref [] in
  let set_up () =
    let t0 = Metrics.now () in
    let its = w.setup () in
    if w.warmup then begin
      w.start_pass ();
      List.iter
        (fun (it : W.item) ->
          let _, o = one it in
          record it.name o.failures;
          Hashtbl.replace reference it.name o.core)
        its
    end;
    items := its;
    Metrics.now () -. t0
  in
  (* [setups] set-ups, and more while they have taken less than half a
     second, so a set-up of a few milliseconds still gets a steady
     median; the last set-up's items are measured *)
  let setup_times = ref [] in
  while
    let n = List.length !setup_times in
    n < setups || (n < 100 && List.fold_left ( +. ) 0. !setup_times < 0.5)
  do
    setup_times := set_up () :: !setup_times
  done;
  let items = !items in
  (* timed loop *)
  let untraced = ref [] and traced = ref [] and n_untraced = ref 0 in
  let traced_requests = ref [] in
  let first_pass = ref None in
  let peak_mb = ref Float.nan in
  let timers = ref [] in
  let deadline = Metrics.now () +. seconds in
  let pass = ref 0 in
  let min_passes = if trace then 2 else 1 in
  (* enough untraced samples for a tail with ten beyond it *)
  let more () =
    !pass < min_passes || Metrics.now () < deadline || !n_untraced <= 10
  in
  while more () do
    let tracing = trace && !pass mod 2 = 1 in
    w.start_pass ();
    let before = cells () in
    List.iter
      (fun (it : W.item) ->
        if more () then begin
          if Metrics.now () -. !last_host >= 1. then read_host ();
          let c0 = cells () in
          Trace.enabled := tracing;
          let dt, o =
            Fun.protect ~finally:(fun () -> Trace.enabled := false) (fun () -> one it)
          in
          let s = { item = it.name; seconds = dt; outcome = o } in
          if not (Hashtbl.mem reference it.name) then
            Hashtbl.replace reference it.name o.core;
          let same = Hashtbl.find_opt reference it.name = Some o.core in
          if tracing then begin
            (* a recomposition that renders differently leaves the item
               untraced; the untraced passes still check the program *)
            record it.name o.failures;
            traced := s :: !traced;
            timers := (c0, cells ()) :: !timers;
            traced_requests := (!Trace.current_request, same) :: !traced_requests
          end
          else begin
            record it.name
              (o.failures @ if same then [] else [ "output differs from its reference" ]);
            untraced := s :: !untraced;
            incr n_untraced
          end
        end)
      items;
    if tracing && !first_pass = None then first_pass := Some (before, cells ());
    (* Peak memory over set-up and one whole pass.  The OCaml 5.1 heap
       never shrinks, so later passes (one per worker lifetime on
       corpus-warm) would add fragmentation in proportion to how many
       passes the host's speed allows. *)
    if !pass = 0 then peak_mb := peak_mem_mb ();
    incr pass
  done;
  let untraced = List.rev !untraced and traced = List.rev !traced in
  read_host ();
  List.iter (fun m -> record "once" [ m ]) (w.once ());
  (* outcomes are deterministic per item: take each item's reference *)
  let outcomes =
    List.map (fun (_, ss) -> (List.hd ss).outcome) (by_item items untraced)
  in
  let share p l =
    float_of_int (List.length (List.filter p l)) /. float_of_int (List.length l)
  in
  let m name value = { name; unit = List.assoc name (end_to_end @ per_layer); value } in
  let e2e () =
    let per_item =
      List.map (fun (_, ss) -> List.map (fun s -> s.seconds *. 1000.) ss)
        (by_item items untraced)
    in
    [
      m "analyze_ms" (latency_ms items untraced);
      m "analyze_tail_ms"
        (match Stats.normalized_tail per_item with
        | Some (x, _) -> x
        | None -> Float.nan);
      m "analyses_per_s"
        (float_of_int (List.length untraced)
        /. List.fold_left (fun a s -> a +. s.seconds) 0. untraced);
      m "exact_share" (share (fun (o : W.outcome) -> o.exact) outcomes);
      m "ok_share"
        (float_of_int (!attempted - !failed) /. float_of_int !attempted);
      m "plan_efficiency"
        (Stats.geomean (List.filter_map (fun (o : W.outcome) -> o.efficiency) outcomes));
      m "peak_mem_mb" !peak_mb;
      m "setup_s" (Stats.median !setup_times);
    ]
  in
  let layers () =
    let nreq = float_of_int (List.length traced) in
    let per_req x = x /. nreq in
    let selfs = Trace.self_times !Trace.spans in
    let self_of name =
      List.fold_left
        (fun a ((s : Trace.span), self) -> if s.name = name then a +. self else a)
        0. selfs
    in
    let before, after = Option.get !first_pass in
    let timer name =
      List.fold_left (fun a (c0, c1) -> a +. timer_delta c0 c1 name) 0. !timers
    in
    (* coverage: request time inside named stage spans, on the items
       whose recomposed analysis matched the untraced reference *)
    let roots =
      List.filter (fun ((s : Trace.span), _) -> s.parent = 0) selfs
    in
    let covered, total =
      List.fold_left
        (fun (c, t) ((s : Trace.span), self) ->
          let same =
            Option.value (List.assoc_opt s.request !traced_requests) ~default:false
          in
          ((if same then c +. Trace.duration s -. self else c), t +. Trace.duration s))
        (0., 0.) roots
    in
    let all_stores =
      List.fold_left
        (fun (h, mi) st ->
          let dh, dm = cache_delta before after st in
          (h + dh, mi + dm))
        (0, 0) stores
    in
    let payoff =
      let pairs =
        List.filter_map
          (fun (name, ss) ->
            match String.split_on_char '/' name |> List.rev with
            | "first" :: rest ->
                let rname = String.concat "/" (List.rev ("repeat" :: rest)) in
                List.assoc_opt rname (by_item items untraced)
                |> Option.map (fun rs ->
                       Stats.median (List.map (fun s -> s.seconds) ss)
                       /. Stats.median (List.map (fun s -> s.seconds) rs))
            | _ -> None)
          (by_item items untraced)
      in
      if pairs <> [] then Stats.geomean pairs
      else
        (* no repeat requests in the workload: repeat each item once,
           straight after a cold request, with the stores kept *)
        Stats.geomean
          (List.map
             (fun (it : W.item) ->
               let cold_s, o = one it in
               record it.name o.failures;
               let t0 = Metrics.now () in
               let check = it.request () in
               let repeat_s = Metrics.now () -. t0 in
               record it.name (check ()).failures;
               cold_s /. repeat_s)
             items)
    in
    let execs = List.filter_map (fun s -> s.outcome.W.exec) traced in
    let exec_mean f =
      if execs = [] then 0. else Stats.mean (List.map f execs)
    in
    (* per pass: each item's first traced outcome *)
    let firsts = List.map (fun (_, ss) -> (List.hd ss).outcome) (by_item items traced) in
    let first_execs = List.filter_map (fun (o : W.outcome) -> o.exec) firsts in
    let comm f =
      float_of_int
        (List.fold_left
           (fun a (o : W.outcome) -> a + Option.fold ~none:0 ~some:f o.comm)
           0 firsts)
    in
    let exec_sum f =
      float_of_int (List.fold_left (fun a (x : W.exec_obs) -> a + f x.result) 0 first_execs)
    in
    List.map (fun (span, name) -> m name (1000. *. per_req (self_of span))) layer_spans
    @ List.map (fun (timer_name, name) -> m name (1000. *. per_req (timer timer_name))) layer_timers
    @ List.map
        (fun (c, name) -> m name (float_of_int (counter_delta before after c)))
        layer_counters
    @ [
        m "comm.messages" (comm fst);
        m "comm.words" (comm snd);
        m "artifact.hit_rate" (rate all_stores);
      ]
    @ List.map
        (fun st -> m ("artifact." ^ st ^ ".hit_rate") (rate (cache_delta before after st)))
        stores
    @ [
        m "expr.intern.hit_rate" (rate (cache_delta before after "expr.intern"));
        m "artifact.payoff" payoff;
        m "exec.run_ms" (1000. *. exec_mean (fun x -> x.run_s));
        m "exec.par_ms" (1000. *. exec_mean (fun x -> x.result.wall_par));
        m "exec.replay_ms" (1000. *. exec_mean (fun x -> x.result.wall_seq));
        m "exec.other_ms"
          (1000.
          *. exec_mean (fun x -> x.run_s -. x.result.wall_par -. x.result.wall_seq));
        m "exec.busy_ms"
          (1000. *. exec_mean (fun x -> Stats.mean (Array.to_list x.result.busy)));
        m "exec.wait_share"
          (exec_mean (fun x ->
               1. -. (Stats.mean (Array.to_list x.result.busy) /. x.result.wall_par)));
        m "exec.messages" (exec_sum (fun r -> r.sched_messages));
        m "exec.words" (exec_sum (fun r -> r.sched_words));
        m "exec.remote_accesses" (exec_sum (fun r -> r.remote_gets + r.remote_puts));
        m "exec.speedup"
          (if execs = [] then 0.
           else Stats.geomean (List.map (fun (x : W.exec_obs) -> x.result.speedup) execs));
        m "exec.sim_gap"
          (exec_mean (fun x ->
               x.sim_efficiency -. (x.result.speedup /. float_of_int x.result.h)));
        m "trace.coverage" (if total > 0. then covered /. total else 0.);
        m "trace.overhead" (latency_ms items traced /. latency_ms items untraced);
      ]
  in
  let raw = if trace then layers () else e2e () in
  (* every time at the nominal host speed (see [Reference]) *)
  let r = Stats.median !host in
  let f = Reference.nominal /. r in
  let metrics =
    List.map
      (fun x ->
        match x.unit with
        | "ms" | "s" -> { x with value = x.value *. f }
        | "1/s" -> { x with value = x.value /. f }
        | _ -> x)
      raw
  in
  let n = List.length untraced in
  let tail =
    if n > 10 then
      Printf.sprintf "tail: rank %d of %d samples (p%.1f), per-item normalized"
        (n - 11) n
        (100. *. float_of_int (n - 10) /. float_of_int n)
    else "tail: fewer than 11 samples"
  in
  let host_note =
    Printf.sprintf
      "host: reference unit %.3f ms (median of %d), nominal %.3f ms; times \
       scaled by %.4f%s"
      (1000. *. r) (List.length !host) (1000. *. Reference.nominal) f
      (String.concat ""
         (List.filter_map
            (fun x ->
              if x.unit = "ms" || x.unit = "s" || x.unit = "1/s" then
                Some (Printf.sprintf "; raw %s %.6g" x.name x.value)
              else None)
            (if trace then [] else raw)))
  in
  {
    attempted = !attempted;
    failed = !failed;
    failures = List.sort_uniq compare !failures;
    metrics;
    notes =
      [
        Printf.sprintf "workload %s, seed %d, %d items, %d passes, %d timed requests (%d traced)"
          w.name seed (List.length items) !pass
          (List.length untraced + List.length traced)
          (List.length traced);
        "probe seed: " ^ w.probe_policy;
        tail;
        host_note;
      ];
    spans = !Trace.spans;
  }
