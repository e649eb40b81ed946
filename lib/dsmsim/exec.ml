open Locality
open Ilp

type phase_stats = Machine.phase_stats = {
  name : string;
  local : int;
  remote : int;
  compute : int;
  time : float;
}

type comm_kind = Machine.comm_kind = Redistribution | Frontier_update

type comm_stats = Machine.comm_stats = {
  array : string;
  kind : comm_kind;
  before_phase : int;
  words : int;
  time : float;
}

type proc_stats = Machine.proc_stats = {
  compute_time : float;
  access_time : float;  (** local + remote access cycles *)
}

type run = Machine.run = {
  h : int;
  phases : phase_stats list;
  comms : comm_stats list;
  par_time : float;
  seq_time : float;
  efficiency : float;
  total_local : int;
  total_remote : int;
  per_proc : proc_stats array;
  retry_time : float;
  fault_stats : Fault.stats option;
}

let proc_of_iteration ~chunk ~h i = i / max 1 chunk mod h

let array_size ?on_error (lcg : Lcg.t) array =
  Comm.array_size ?on_error lcg array

let seq_env_run (lcg : Lcg.t) (m : Cost.machine) =
  let total = ref 0.0 in
  List.iter
    (fun ph ->
      Ir.Enumerate.iter lcg.prog lcg.env ph ~f:(fun ~par:_ ~array:_ ~addr:_ _ ~work ->
          total := !total +. float_of_int (work + m.t_local)))
    lcg.prog.phases;
  !total

(* Exponential-backoff accounting for one retried message: attempt [a]
   (1-based) pays [t_startup * 2^(a-1)] wait plus a full resend of the
   words. *)
let retry_cost (m : Cost.machine) (r : Fault.retry) =
  let rec go a acc =
    if a > r.attempts then acc
    else
      go (a + 1)
        (acc
        +. float_of_int ((m.t_startup * (1 lsl (a - 1))) + (r.words * m.t_word)))
  in
  go 1 0.0

module L = Symbolic.Lattice

(* Everything one phase contributes per round: the same accesses play
   out every round, so the accounting is computed once - symbolically
   when the phase stays inside the closed-form fragment, by replaying
   the enumerator otherwise - and applied per round. *)
type summary = {
  s_local : int;
  s_remote : int;
  s_compute : int;
  s_clock : float array;  (** per processor: work + access cycles *)
  s_pcompute : float array;
  s_paccess : float array;
  s_seq : float;  (** contribution to the serialized baseline *)
  s_written : string list;  (** arrays the phase writes *)
}

let summarize_enum ?budget (lcg : Lcg.t) (plan : Distribution.plan)
    (m : Cost.machine) ~size_of k ph =
  let h = plan.h in
  let chunk = plan.chunk.(k) in
  let clock = Array.make h 0.0 in
  let pcomp = Array.make h 0.0 and pacc = Array.make h 0.0 in
  let local = ref 0 and remote = ref 0 and compute = ref 0 in
  let seq = ref 0.0 in
  let written = Hashtbl.create 4 in
  Ir.Enumerate.iter ?budget lcg.prog lcg.env ph
    ~f:(fun ~par ~array ~addr access ~work ->
      let proc =
        match par with
        | Some i -> proc_of_iteration ~chunk ~h i
        | None -> 0
      in
      (* Remote writes are single-sided pipelined puts (t_put);
         remote reads pay the full round trip (t_remote). *)
      let remote_cost =
        match access with
        | Ir.Types.Read -> m.t_remote
        | Ir.Types.Write -> m.t_put
      in
      let access_cost =
        if List.mem (k, array) plan.privatized then begin
          incr local;
          m.t_local
        end
        else
          match Distribution.layout_for plan ~array ~phase_idx:k with
          | Some l ->
              let owned = Distribution.proc_of plan l ~addr = proc in
              (* Reads within the replicated ghost zone around an
                 owned block are served locally (Theorem 1c). *)
              (* the replicated window matches the frontier strips:
                 min(halo, block) cells beyond each owned block *)
              let w = min l.halo l.block in
              let halo_local =
                (not owned)
                && l.halo > 0
                && (match access with Ir.Types.Read -> true | Ir.Types.Write -> false)
                && ((match size_of array with
                    | Some s -> l.halo >= s
                    | None -> false (* unknown size: not replicated *))
                   || Distribution.proc_of plan l ~addr:(addr - w) = proc
                   || Distribution.proc_of plan l ~addr:(addr + w) = proc)
              in
              if owned || halo_local then begin
                incr local;
                m.t_local
              end
              else begin
                incr remote;
                remote_cost
              end
          | None ->
              incr local;
              m.t_local
      in
      (match access with
      | Ir.Types.Write -> Hashtbl.replace written array ()
      | Ir.Types.Read -> ());
      compute := !compute + work;
      clock.(proc) <- clock.(proc) +. float_of_int (work + access_cost);
      pcomp.(proc) <- pcomp.(proc) +. float_of_int work;
      pacc.(proc) <- pacc.(proc) +. float_of_int access_cost;
      seq := !seq +. float_of_int (work + m.t_local));
  {
    s_local = !local;
    s_remote = !remote;
    s_compute = !compute;
    s_clock = clock;
    s_pcompute = pcomp;
    s_paccess = pacc;
    s_seq = !seq;
    s_written = Hashtbl.fold (fun a () acc -> a :: acc) written [];
  }

(* The same totals in closed form: per site, per-processor event counts
   against the layout's ownership intervals (and the ghost-zone family
   for halo'd reads), all integer arithmetic overflow-checked.  Sums of
   integers below 2^53 convert to the exact floats the enumerating path
   accumulates, so reports agree bit-for-bit. *)
let summarize_symbolic (lcg : Lcg.t) (plan : Distribution.plan)
    (m : Cost.machine) ~size_of k ph =
  match Ir.Shape.of_phase lcg.prog lcg.env ph with
  | None -> None
  | Some t -> (
      let exception Subtle in
      try
        let h = plan.h in
        let chunk = plan.chunk.(k) in
        let local = ref 0 and remote = ref 0 and compute = ref 0 in
        let clock = Array.make h 0 in
        let pcomp = Array.make h 0 and pacc = Array.make h 0 in
        let seq = ref 0 in
        let written = ref [] in
        let events_of s sets =
          match
            Owncount.per_proc ~h ~chunk ~par:s.Ir.Shape.par ~par_n:t.par_n
              ~base:s.Ir.Shape.base ~seq:s.Ir.Shape.seq ~sets
          with
          | None -> raise Subtle
          | Some r -> r
        in
        let all_local = Array.make h [] in
        List.iter
          (fun (s : Ir.Shape.site) ->
            if Ir.Shape.emits t s then begin
              (match s.access with
              | Ir.Types.Write ->
                  if not (List.mem s.array !written) then
                    written := s.array :: !written
              | Ir.Types.Read -> ());
              let remote_cost =
                match s.access with
                | Ir.Types.Read -> m.t_remote
                | Ir.Types.Write -> m.t_put
              in
              let events, local_hits =
                if List.mem (k, s.array) plan.privatized then
                  let ev, _ = events_of s all_local in
                  (ev, Array.copy ev)
                else
                  match
                    Distribution.layout_for plan ~array:s.array ~phase_idx:k
                  with
                  | None ->
                      let ev, _ = events_of s all_local in
                      (ev, Array.copy ev)
                  | Some l -> (
                      let box =
                        match Ir.Shape.box t s with
                        | Some b -> b
                        | None -> raise Subtle
                      in
                      let w = min l.halo l.block in
                      let owned_sets =
                        match
                          Owncount.intervals_of
                            (Distribution.own_of ~h l)
                            ~lo:(L.lo box - w) ~hi:(L.hi box + w)
                        with
                        | None -> raise Subtle
                        | Some o -> o
                      in
                      let ev, own_hits = events_of s owned_sets in
                      match s.access with
                      | Ir.Types.Write -> (ev, own_hits)
                      | Ir.Types.Read ->
                          let replicated =
                            l.halo > 0
                            &&
                            match size_of s.array with
                            | Some sz -> l.halo >= sz
                            | None -> false
                          in
                          if replicated then (ev, Array.copy ev)
                          else if l.halo > 0 then begin
                            let halo_sets =
                              Array.map
                                (fun o ->
                                  L.Iv.subtract
                                    (L.Iv.union (L.Iv.shift o w)
                                       (L.Iv.shift o (-w)))
                                    o)
                                owned_sets
                            in
                            let _, halo_hits = events_of s halo_sets in
                            ( ev,
                              Array.init h (fun p0 ->
                                  own_hits.(p0) + halo_hits.(p0)) )
                          end
                          else (ev, own_hits))
              in
              for p0 = 0 to h - 1 do
                let e = events.(p0) in
                let lh = local_hits.(p0) in
                let rh = e - lh in
                let wk = L.Safe.mul s.work e in
                local := L.Safe.add !local lh;
                remote := L.Safe.add !remote rh;
                compute := L.Safe.add !compute wk;
                clock.(p0) <-
                  L.Safe.add clock.(p0)
                    (L.Safe.add wk
                       (L.Safe.add (L.Safe.mul m.t_local lh)
                          (L.Safe.mul remote_cost rh)));
                pcomp.(p0) <- L.Safe.add pcomp.(p0) wk;
                pacc.(p0) <-
                  L.Safe.add pacc.(p0)
                    (L.Safe.add (L.Safe.mul m.t_local lh)
                       (L.Safe.mul remote_cost rh));
                seq :=
                  L.Safe.add !seq (L.Safe.mul (s.work + m.t_local) e)
              done
            end)
          t.sites;
        Some
          {
            s_local = !local;
            s_remote = !remote;
            s_compute = !compute;
            s_clock = Array.map float_of_int clock;
            s_pcompute = Array.map float_of_int pcomp;
            s_paccess = Array.map float_of_int pacc;
            s_seq = float_of_int !seq;
            s_written = !written;
          }
      with Subtle | L.Overflow -> None)

let summarize lcg plan m ~size_of k ph =
  match !L.mode with
  | L.Enumerated_only -> summarize_enum lcg plan m ~size_of k ph
  | L.Auto | L.Symbolic_only -> (
      match summarize_symbolic lcg plan m ~size_of k ph with
      | Some s -> s
      | None ->
          L.note_fallback ~stage:"exec"
            ("phase " ^ ph.Ir.Types.phase_name ^ " accounting");
          summarize_enum
            ~budget:(Ir.Enumerate.budget ~stage:"exec" ~array:"every array")
            lcg plan m ~size_of k ph)

let exec_timer = Symbolic.Metrics.timer "dsmsim.exec"
let msg_count = Symbolic.Metrics.counter "exec.messages"
let word_count = Symbolic.Metrics.counter "exec.words"
let local_count = Symbolic.Metrics.counter "exec.local"
let remote_count = Symbolic.Metrics.counter "exec.remote"

(* The priced simulator as a {!Machine.BACKEND}: [phase] applies the
   per-phase summary (computed once at creation, replayed per round),
   [comm] prices a scheduled event against the busiest processor. *)
module Sim = struct
  type t = {
    lcg : Lcg.t;
    plan : Distribution.plan;
    m : Cost.machine;
    summaries : summary array;
    proc_compute : float array;
    proc_access : float array;
    (* written-array set of the phase currently being stepped; [comm]
       is called for a phase's frontier events after its [phase], so
       the frontier filter sees the right sweep. *)
    mutable written : string list;
  }

  let create ?on_error (lcg : Lcg.t) (plan : Distribution.plan)
      (m : Cost.machine) =
    let sizes = Hashtbl.create 8 in
    let size_of array =
      match Hashtbl.find_opt sizes array with
      | Some s -> s
      | None ->
          let s = array_size ?on_error lcg array in
          Hashtbl.add sizes array s;
          s
    in
    {
      lcg;
      plan;
      m;
      summaries =
        Array.of_list
          (List.mapi
             (fun k ph -> summarize lcg plan m ~size_of k ph)
             lcg.prog.phases);
      proc_compute = Array.make plan.h 0.0;
      proc_access = Array.make plan.h 0.0;
      written = [];
    }

  (* Per-processor cost of one communication event: every processor
     overlaps its own sends and receives; the event completes when the
     busiest processor does. *)
  let event_time b messages =
    let h = b.plan.h in
    let sends = Array.make h 0 and recvs = Array.make h 0 in
    let msgs = Array.make h 0 in
    List.iter
      (fun (msg : Comm.message) ->
        Symbolic.Metrics.incr msg_count;
        Symbolic.Metrics.incr word_count ~by:msg.words;
        sends.(msg.src) <- sends.(msg.src) + msg.words;
        recvs.(msg.dst) <- recvs.(msg.dst) + msg.words;
        msgs.(msg.src) <- msgs.(msg.src) + 1)
      messages;
    let worst = ref 0.0 in
    for p0 = 0 to h - 1 do
      let t =
        float_of_int (msgs.(p0) * b.m.t_startup)
        +. float_of_int ((sends.(p0) + recvs.(p0)) * b.m.t_word)
      in
      if t > !worst then worst := t
    done;
    !worst

  let words_of messages =
    List.fold_left (fun a (msg : Comm.message) -> a + msg.words) 0 messages

  let comm b ~round:_ ~k = function
    | Comm.Redistribute { array; before_phase = _; messages } ->
        let t = event_time b messages in
        Some
          {
            array;
            kind = Machine.Redistribution;
            before_phase = k;
            words = words_of messages;
            time = t;
          }
    | Comm.Frontier { array; after_phase = _; messages } ->
        if List.mem array b.written then
          let t = event_time b messages in
          Some
            {
              array;
              kind = Machine.Frontier_update;
              before_phase = k + 1;
              words = words_of messages;
              time = t;
            }
        else None

  let phase b ~round:_ ~k (ph : Ir.Types.phase) =
    let s = b.summaries.(k) in
    for p0 = 0 to b.plan.h - 1 do
      b.proc_compute.(p0) <- b.proc_compute.(p0) +. s.s_pcompute.(p0);
      b.proc_access.(p0) <- b.proc_access.(p0) +. s.s_paccess.(p0)
    done;
    b.written <- s.s_written;
    (* Direct remote accesses are one-sided single-word gets/puts; they
       are traffic just as the aggregated schedule events are, so the
       message metrics count them on both accounting modes (the
       summaries are mode-independent by the enum-parity oracle). *)
    Symbolic.Metrics.incr msg_count ~by:s.s_remote;
    Symbolic.Metrics.incr word_count ~by:s.s_remote;
    ( {
        name = ph.Ir.Types.phase_name;
        local = s.s_local;
        remote = s.s_remote;
        compute = s.s_compute;
        time = Array.fold_left max 0.0 s.s_clock;
      },
      s.s_seq )

  let per_proc b =
    Array.init b.plan.h (fun p0 ->
        {
          compute_time = b.proc_compute.(p0);
          access_time = b.proc_access.(p0);
        })
end

module Sim_driver = Machine.Driver (Sim)

let run ?(rounds = 1) ?on_error ?faults ?(retries = 0) (lcg : Lcg.t)
    (plan : Distribution.plan) (m : Cost.machine) : run =
  Symbolic.Metrics.with_timer exec_timer @@ fun () ->
  let sched = Comm.generate ?on_error lcg plan in
  (* Fault injection perturbs the delivered schedule; retry attempts
     are charged per round (every round faces the same loss). *)
  let sched, fault_stats =
    match faults with
    | None -> (sched, None)
    | Some spec ->
        let delivered, st = Fault.apply spec ~retries sched in
        (delivered, Some st)
  in
  let retry_time_per_round =
    match fault_stats with
    | None -> 0.0
    | Some st ->
        List.fold_left (fun acc r -> acc +. retry_cost m r) 0.0 st.retries
  in
  let retry_time = float_of_int rounds *. retry_time_per_round in
  let b = Sim.create ?on_error lcg plan m in
  let r =
    Sim_driver.drive ~initial_time:retry_time ~rounds ~sched
      ~phases:lcg.prog.phases ~h:plan.h b
  in
  Symbolic.Metrics.incr local_count ~by:r.total_local;
  Symbolic.Metrics.incr remote_count ~by:r.total_remote;
  { r with retry_time; fault_stats }

let pp ppf (r : run) =
  Format.fprintf ppf
    "@[<v>H=%d  T_par=%.0f  T_seq=%.0f  efficiency=%.1f%%  local=%d remote=%d@,"
    r.h r.par_time r.seq_time (100.0 *. r.efficiency) r.total_local
    r.total_remote;
  List.iter
    (fun p ->
      Format.fprintf ppf "  %-6s local=%-8d remote=%-8d t=%.0f@," p.name
        p.local p.remote p.time)
    r.phases;
  List.iter
    (fun c ->
      Format.fprintf ppf "  %s %s %s phase %d: %d words (t=%.0f)@,"
        (match c.kind with
        | Redistribution -> "redistribute"
        | Frontier_update -> "frontier")
        c.array
        (match c.kind with Redistribution -> "before" | Frontier_update -> "after")
        c.before_phase c.words c.time)
    r.comms;
  (match r.fault_stats with
  | None -> ()
  | Some st ->
      Format.fprintf ppf
        "  faults: %d msgs, %d dropped, %d duplicated, %d truncated, %d \
         recovered (%d resend attempts, backoff t=%.0f)@,"
        st.messages st.dropped st.duplicated st.truncated st.recovered
        (Fault.total_attempts st) r.retry_time);
  Format.fprintf ppf "@]"
