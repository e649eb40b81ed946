(* The four workloads, driven through the library's public functions
   exactly as the CLI drives them.

   A workload is a list of items (one kernel, one size point, one
   corpus request).  The measuring loop sends each item's request in
   turn, closed-loop, and times only [request]; the thunk it returns
   checks the outputs outside the timed region. *)

open Symbolic
module P = Core.Pipeline
module Diag = Core.Diag

let span = Trace.span

type exec_obs = {
  run_s : float;  (** the whole [Runner.execute] call *)
  result : Exec.Runner.result;
  sim_efficiency : float;
}

type outcome = {
  exact : bool;  (** no Error-severity diagnostic *)
  efficiency : float option;
      (** the plan's efficiency; [None] for a degraded item, which is
          left out of [plan_efficiency] rather than counted as 1.0 *)
  failures : string list;  (** output checks that failed *)
  core : string;
      (** deterministic rendering of the result, compared across
          requests of the item and against the untraced reference *)
  comm : (int * int) option;
      (** messages and words of the plan's communication schedule *)
  exec : exec_obs option;
}

type item = {
  name : string;
  prepare : unit -> unit;  (** untimed state policy before a request *)
  request : unit -> unit -> outcome;
      (** timed; the returned thunk runs the checks *)
}

type t = {
  name : string;
  setup : unit -> item list;
      (** inputs in the program's own types, plus any analysis the
          workload keeps out of its timed requests *)
  warmup : bool;
      (** set-up ends with one untimed request per item, so code and
          heap are warm before timing; without it an item's first timed
          request supplies its reference output *)
  probe_policy : string;  (** how the probe stream is seeded, recorded *)
  start_pass : unit -> unit;
  once : unit -> string list;
      (** once-per-run checks outside the timed region: failures *)
}

(* Every request of the cold workloads starts where a fresh process
   would: empty artifact stores and an empty intern table. *)
let cold () =
  Core.Artifact.clear_all ();
  Expr.intern_reset ();
  Gc.full_major ()

(* The CLI never re-seeds the probe: analyses draw from the default
   stream.  The counts depend on it (jacobi2d makes 64,904 uncached
   Env evaluations under it), so the benchmark does the same. *)
let cli_probe = "default stream, never re-seeded (as the dsmloc CLI)"

let core_of (t : P.t) = Format.asprintf "%a@." P.report_core t

(* ------------------------------------------------------------------ *)
(* Pipeline.run recomposed from its public stage calls, with a span
   around each.  It must stay byte-identical to [P.run] in
   [report_core]; the measuring loop checks that per item. *)

let guard ~diags ~stage ~code ~fallback f =
  try f ()
  with e when P.recoverable e ->
    Diag.addf diags ~severity:Diag.Error ~stage ~code
      "stage failed (%s); using conservative fallback" (P.describe e);
    fallback ()

let analyze_traced ~diags prog ~env ~h : P.t =
  let fallbacks_before = Lattice.fallback_count () in
  let machine = Ilp.Cost.default_machine ~h in
  ignore (span "lint" (fun () -> Core.Lint.check ~diags prog));
  let lcg =
    span "lcg" (fun () ->
        guard ~diags ~stage:Diag.Lcg ~code:"LCG-FAIL"
          ~fallback:(fun () -> { Locality.Lcg.prog; env; h; graphs = [] })
          (fun () -> Locality.Lcg.build prog ~env ~h))
  in
  List.iter
    (fun (g : Locality.Lcg.graph) ->
      List.iter
        (fun (n : Locality.Lcg.node) ->
          if not n.pd.Descriptor.Pd.exact then
            let where =
              match List.nth_opt prog.Ir.Types.phases n.phase_idx with
              | Some ph -> ph.Ir.Types.phase_name
              | None -> Printf.sprintf "phase %d" n.phase_idx
            in
            Diag.addf diags ~severity:Diag.Warning ~stage:Diag.Descriptors
              ~where ~code:"DESC-WHOLE-ARRAY"
              "%s: conservative whole-array descriptor (edges forced to C)"
              g.array)
        g.nodes)
    lcg.graphs;
  let model =
    span "model" (fun () ->
        guard ~diags ~stage:Diag.Model ~code:"MODEL-FAIL"
          ~fallback:(fun () ->
            {
              Ilp.Model.lcg;
              n_phases = List.length prog.Ir.Types.phases;
              locality = [];
              bounds = [];
              storage = [];
            })
          (fun () -> Ilp.Model.of_lcg lcg))
  in
  let solve_failed = ref false in
  let solution =
    span "solve" (fun () ->
        guard ~diags ~stage:Diag.Solve ~code:"SOLVE-FAIL"
          ~fallback:(fun () ->
            solve_failed := true;
            let block = Ilp.Distribution.block_plan lcg in
            {
              Ilp.Solve.p = block.chunk;
              d_cost = 0.0;
              c_cost = 0.0;
              objective = 0.0;
              broken = [];
              budget_exhausted = false;
            })
          (fun () -> Ilp.Solve.solve model machine))
  in
  if solution.broken <> [] then
    Diag.addf diags ~severity:Diag.Warning ~stage:Diag.Solve
      ~code:"SOLVE-BROKEN" "%d locality row(s) violated (priced as extra C)"
      (List.length solution.broken);
  if solution.budget_exhausted then begin
    Diag.addf diags ~severity:Diag.Warning ~stage:Diag.Solve
      ~code:"SOLVE-BUDGET"
      "solver search budget exhausted (incumbent may be sub-optimal); \
       falling back to the BLOCK baseline plan";
    solve_failed := true
  end;
  let plan =
    span "plan" (fun () ->
        if !solve_failed then Ilp.Distribution.block_plan lcg
        else
          guard ~diags ~stage:Diag.Plan ~code:"PLAN-FAIL"
            ~fallback:(fun () -> Ilp.Distribution.block_plan lcg)
            (fun () -> Ilp.Distribution.of_solution lcg ~p:solution.p))
  in
  let fallbacks = Lattice.fallback_count () - fallbacks_before in
  if fallbacks > 0 && !Lattice.mode <> Lattice.Enumerated_only then
    Diag.addf diags ~severity:Diag.Info ~stage:Diag.Lint
      ~code:"LINT-SYMBOLIC-FALLBACK"
      "%d analysis step(s) left the closed-form symbolic fragment and fell \
       back to address enumeration (per-stage breakdown under the \
       symbolic.fallback.* counters in --profile)"
      fallbacks;
  { P.prog; env; machine; lcg; model; solution; plan; diags }

let analyze ?(diags = Diag.collector ()) prog ~env ~h =
  if !Trace.enabled then analyze_traced ~diags prog ~env ~h
  else P.run ~diags prog ~env ~h

(* ------------------------------------------------------------------ *)
(* Output checks *)

let in_unit x = Float.is_finite x && x >= 0. && x <= 1.

let check_eff what x =
  if in_unit x then [] else [ Printf.sprintf "%s efficiency %.17g outside [0, 1]" what x ]

let schedule_size sched =
  (Dsmsim.Comm.message_count sched, Dsmsim.Comm.total_words sched)

let rounds_of (prog : Ir.Types.program) = if prog.repeats then 2 else 1

(* ------------------------------------------------------------------ *)
(* registry-cold: the nine kernels at their default size, H = 4, the
   way `dsmloc report` handles each: analysis, the communication
   schedule summary, simulation of the plan and of the BLOCK baseline,
   then dataflow validation. *)

let report_request (e : Codes.Registry.entry) ~h () =
  let env = e.env_of_size e.default_size in
  let t = analyze e.program ~env ~h in
  let sched =
    span "comm" (fun () ->
        Dsmsim.Comm.generate ~on_error:(P.record_comm_error t) t.lcg t.plan)
  in
  let sim = span "sim" (fun () -> P.simulate t) in
  let base = span "sim" (fun () -> P.simulate_baseline t) in
  let v =
    span "validate" (fun () ->
        Dsmsim.Validate.run ~rounds:(rounds_of e.program) t.lcg t.plan)
  in
  fun () ->
    let exact = not (P.degraded t) in
    let failures =
      (if Dsmsim.Validate.ok v then []
       else [ Printf.sprintf "validate: %d stale reads" v.stale ])
      @ check_eff "plan" sim.efficiency
      @ check_eff "baseline" base.efficiency
    in
    {
      exact;
      efficiency = (if exact then Some sim.efficiency else None);
      failures;
      core = core_of t;
      comm = Some (schedule_size sched);
      exec = None;
    }

(* Auto-mode analysis must render exactly as the enumerated oracle on
   every kernel.  Checked once per run, outside the timed region. *)
let enum_parity (entries : Codes.Registry.entry list) ~h =
  let render mode (e : Codes.Registry.entry) =
    let saved = !Lattice.mode in
    Lattice.mode := mode;
    Fun.protect
      ~finally:(fun () -> Lattice.mode := saved)
      (fun () ->
        cold ();
        core_of (P.run e.program ~env:(e.env_of_size e.default_size) ~h))
  in
  List.filter_map
    (fun (e : Codes.Registry.entry) ->
      if render Lattice.Auto e = render Lattice.Enumerated_only e then None
      else Some (e.name ^ ": Auto and Enumerated_only report_core differ"))
    entries

let registry_cold =
  let h = 4 in
  {
    name = "registry-cold";
    probe_policy = cli_probe;
    warmup = true;
    setup =
      (fun () ->
        List.map
          (fun (e : Codes.Registry.entry) ->
            { name = e.name; prepare = cold; request = report_request e ~h })
          Codes.Registry.all);
    start_pass = ignore;
    once = (fun () -> enum_parity Codes.Registry.all ~h);
  }

(* ------------------------------------------------------------------ *)
(* large-symbolic: every kernel at 2^20 with H = 64 and at 2^30 with
   H = 1024, analysis only, under the closed-form accounting alone. *)

(* Eq. 7 model efficiency: ideal per-processor work over work plus the
   solved overhead.  A 2^30-extent phase does more work than a native
   int holds ([Shape.total_work] saturates), so the work is summed in
   floating point from the sites' exact counts, and checked finite. *)
let model_efficiency (t : P.t) =
  let site_work (s : Ir.Shape.t) (site : Ir.Shape.site) =
    List.fold_left
      (fun acc (count, _) -> acc *. float_of_int count)
      (float_of_int site.work *. float_of_int (Ir.Shape.occurrences s site))
      site.seq
  in
  let phase_work ph =
    match Ir.Shape.of_phase t.prog t.env ph with
    | Some s -> List.fold_left (fun acc site -> acc +. site_work s site) 0. s.sites
    | None -> raise Exit
  in
  match List.fold_left (fun acc ph -> acc +. phase_work ph) 0. t.prog.phases with
  | w when not (Float.is_finite w) -> Error "work sum overflows"
  | w ->
      let ideal = w /. float_of_int t.lcg.h in
      Ok (ideal /. (ideal +. t.solution.objective))
  | exception Exit -> Error "phase shape does not evaluate"

let symbolic_request (e : Codes.Registry.entry) ~size ~h () =
  let saved = !Lattice.mode in
  Lattice.mode := Lattice.Symbolic_only;
  let t =
    Fun.protect
      ~finally:(fun () -> Lattice.mode := saved)
      (fun () -> analyze e.program ~env:(e.env_of_size size) ~h)
  in
  fun () ->
    let exact = not (P.degraded t) in
    let efficiency, failures =
      if not exact then (None, [])
      else
        match model_efficiency t with
        | Ok x -> (Some x, check_eff "model" x)
        | Error m -> (None, [ m ])
    in
    { exact; efficiency; failures; core = core_of t; comm = None; exec = None }

let symbolic_points = [ (20, 64); (30, 1024) ]

let large_symbolic =
  {
    name = "large-symbolic";
    probe_policy = cli_probe;
    warmup = true;
    setup =
      (fun () ->
        List.concat_map
          (fun (e : Codes.Registry.entry) ->
            List.map
              (fun (size, h) ->
                {
                  name = Printf.sprintf "%s@2^%d/H%d" e.name size h;
                  prepare = cold;
                  request = symbolic_request e ~size ~h;
                })
              symbolic_points)
          Codes.Registry.all);
    start_pass = ignore;
    once = (fun () -> []);
  }

(* ------------------------------------------------------------------ *)
(* corpus-warm: a seeded corpus of generated programs reaching the
   program only as source text, each requested at H = 2, 4, 8 and then
   again, the stores and intern table kept across the requests of a
   pass as in a long-lived `dsmloc serve` worker. *)

(* The corpus is a seeded draw of [corpus_size] programs, in seeded
   order, from a pool of the first [pool_size] programs of the
   generator's campaign [pool_seed].  Drawing most of a fixed pool
   keeps the workload's mix of cheap and expensive programs nearly
   the same from seed to seed, so a change of seed moves the inputs
   without moving the metrics by the pool's whole cost spread. *)
let pool_seed = 2026
let pool_size = 80
let corpus_size = 76
let corpus_hs = [ 2; 4; 8 ]

let corpus ~seed =
  let st = Random.State.make [| seed |] in
  let keyed =
    List.init pool_size (fun index -> (Random.State.bits st, index))
  in
  List.sort compare keyed
  |> List.filteri (fun i _ -> i < corpus_size)
  |> List.map (fun (_, index) ->
         ( index,
           Frontend.Unparse.to_string
             (Fuzz.Gen.program Fuzz.Gen.default ~seed:pool_seed ~index) ))

(* The `dsmloc file` request under the serve worker's seeding policy:
   the probe seed is derived from the source digest, so a repeat is a
   pure function of the request. *)
let probe_seed src = Hashtbl.hash (Digest.string src) land 0x3FFFFFFF

let file_request ~where src ~h () =
  Probe.with_seed (probe_seed src) @@ fun () ->
  let diags = Diag.collector () in
  match span "parse" (fun () -> P.parse_program ~diags ~where src) with
  | None ->
      fun () ->
        {
          exact = false;
          efficiency = None;
          failures = [ where ^ ": does not parse" ];
          core = "";
          comm = None;
          exec = None;
        }
  | Some prog ->
      let env = Fuzz.Gen.midpoint_env prog in
      let t = analyze ~diags prog ~env ~h in
      let body = span "report" (fun () -> Format.asprintf "%a@." P.report t) in
      let sim = span "sim" (fun () -> P.simulate t) in
      let base = span "sim" (fun () -> P.simulate_baseline t) in
      fun () ->
        let exact = not (P.degraded t) in
        {
          exact;
          efficiency = (if exact then Some sim.efficiency else None);
          failures = check_eff "plan" sim.efficiency @ check_eff "baseline" base.efficiency;
          core = body;
          comm = Some (schedule_size (Dsmsim.Comm.generate t.lcg t.plan));
          exec = None;
        }

(* A repeat must answer byte-for-byte what the first request of the
   same program and H answered: warm state may only save time. *)
let repeat_request ~first ~where src ~h () =
  let check = file_request ~where src ~h () in
  fun () ->
    let o = check () in
    match Hashtbl.find_opt first (where, h) with
    | Some body when body <> o.core ->
        { o with failures = "warm repeat differs from first request" :: o.failures }
    | _ -> o

let first_request ~first ~where src ~h () =
  let check = file_request ~where src ~h () in
  fun () ->
    let o = check () in
    Hashtbl.replace first (where, h) o.core;
    o

let corpus_warm ~seed =
  {
    name = "corpus-warm";
    probe_policy = "per request, hash of the source digest (as dsmloc serve)";
    warmup = false;
    setup =
      (fun () ->
        let first = Hashtbl.create 256 in
        List.concat_map
          (fun (index, src) ->
            let where = Printf.sprintf "pool[%d]" index in
            List.concat_map
              (fun (pass, request) ->
                List.map
                  (fun h ->
                    {
                      name = Printf.sprintf "%s/H%d/%s" where h pass;
                      prepare = ignore;
                      request = request ~first ~where src ~h;
                    })
                  corpus_hs)
              [ ("first", first_request); ("repeat", repeat_request) ])
          (corpus ~seed));
    start_pass =
      (fun () ->
        cold ();
        (* a compacted heap at the start of every worker lifetime keeps
           the peak from creeping up with the number of passes *)
        Gc.compact ());
    once = (fun () -> []);
  }

(* ------------------------------------------------------------------ *)
(* exec-h2: four kernels at sizes where each run sweeps for real,
   executed on two domains as `dsmloc run --validate` does, with the
   simulator's prediction for the same plan.  Analysis happens in
   set-up; the timed request is the run. *)

let exec_kernels = [ ("jacobi2d", 8); ("swim", 8); ("tfft2", 7); ("adi", 8) ]
let exec_spin = 50

let exec_request (t : P.t) () =
  let rounds = rounds_of t.prog in
  if !Trace.enabled then
    ignore
      (span "compile" (fun () -> Codegen.Compile.program t.prog t.env t.plan));
  let t0 = Core.Metrics.now () in
  let r =
    span "exec" (fun () ->
        Exec.Runner.execute ~rounds ~spin:exec_spin t.lcg t.plan)
  in
  let run_s = Core.Metrics.now () -. t0 in
  let sim =
    span "sim" (fun () ->
        Dsmsim.Exec.run ~rounds ~on_error:(P.record_comm_error t) t.lcg t.plan
          t.machine)
  in
  fun () ->
    let exact = not (P.degraded t) in
    {
      exact;
      efficiency = (if exact then Some sim.efficiency else None);
      failures =
        (if Exec.Runner.ok r then []
         else
           [
             Printf.sprintf "run: parity %b, %d stale, %d content mismatches%s"
               (Exec.Runner.schedule_parity r)
               r.stale r.content_mismatches
               (String.concat "" (List.map (( ^ ) "; ") r.errors));
           ])
        @ check_eff "plan" sim.efficiency;
      core =
        Printf.sprintf "%d/%d messages %d/%d words %d gets %d puts %d reads\n"
          r.sched_messages r.expected_messages r.sched_words r.expected_words
          r.remote_gets r.remote_puts r.reads_checked;
      comm = Some (schedule_size (Dsmsim.Comm.generate t.lcg t.plan));
      exec = Some { run_s; result = r; sim_efficiency = sim.efficiency };
    }

let exec_h2 =
  let h = 2 in
  {
    name = "exec-h2";
    probe_policy = cli_probe;
    warmup = false;
    setup =
      (fun () ->
        List.map
          (fun (name, size) ->
            let e = Codes.Registry.find name in
            cold ();
            let t = P.run e.program ~env:(e.env_of_size size) ~h in
            (* the previous run's windows are freed before the next
               allocates, so peak memory is one run's worth *)
            { name; prepare = Gc.full_major; request = exec_request t })
          exec_kernels);
    start_pass = ignore;
    once = (fun () -> []);
  }

let names = [ "registry-cold"; "corpus-warm"; "large-symbolic"; "exec-h2" ]

let find name ~seed =
  match name with
  | "registry-cold" -> Some registry_cold
  | "corpus-warm" -> Some (corpus_warm ~seed)
  | "large-symbolic" -> Some large_symbolic
  | "exec-h2" -> Some exec_h2
  | _ -> None
