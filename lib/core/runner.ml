(** Running compiled kernels on the simulator, checking their results
    against the reference evaluator, and measuring speedups. *)

open Finepar_ir
open Finepar_machine

type run = {
  cycles : int;
  result : Eval.result;
  queues_used : int;  (** dynamic — Table III "Num Queues" *)
  instrs : int;
  load_counters : (string * int * int) list;  (** array, loads, L1 misses *)
  telemetry : Report.t;
}

exception Mismatch of string

(** Simulate a compiled kernel on [workload] and also return the
    simulator itself, for callers that need the raw event trace.  When
    [check] is set (the default), the outputs are compared bit-for-bit
    with the reference evaluator and {!Mismatch} is raised on any
    difference. *)
let run_with_sim ?(check = true) ?(workload = []) ?core_map ?tracing
    ?trace_capacity ?engine (c : Compiler.compiled) =
  let sim =
    Sim.create ?core_map ?tracing ?trace_capacity
      ~config:c.Compiler.config.Compiler.machine ~initial:workload
      c.Compiler.code.Finepar_codegen.Lower.program
  in
  let engine = Option.value engine ~default:Engine.default in
  let cycles =
    Finepar_telemetry.Tracer.with_span ~cat:"sim"
      ~args:
        [
          ( "kernel",
            Finepar_telemetry.Json.String c.Compiler.source.Kernel.name );
        ]
      ("sim:" ^ Engine.to_string engine)
      (fun () ->
        (* The compiled engine's one-time closure compilation is timed as
           its own pass span, nested under the sim span, so traces show
           the specialize cost separately from the run proper. *)
        let specialized =
          match engine with
          | Engine.Compiled ->
            Some
              (Finepar_telemetry.Tracer.with_span ~cat:"pass" "specialize"
                 (fun () -> Sim.specialize sim))
          | Engine.Cycle -> None
        in
        let cycles = Sim.run ~engine ?specialized sim in
        Finepar_telemetry.Tracer.set_arg "cycles"
          (Finepar_telemetry.Json.Int cycles);
        cycles)
  in
  let written = Stmt.arrays_written c.Compiler.kernel.Kernel.body in
  let result =
    {
      Eval.live_out =
        List.map
          (fun (v, r) -> (v, Sim.reg_value sim 0 r))
          c.Compiler.code.Finepar_codegen.Lower.live_out_regs;
      Eval.arrays_out =
        List.filter_map
          (fun (d : Kernel.array_decl) ->
            if Stmt.String_set.mem d.Kernel.a_name written then
              Some (d.Kernel.a_name, Array.copy (Sim.array_contents sim d.Kernel.a_name))
            else None)
          c.Compiler.kernel.Kernel.arrays;
    }
  in
  if check then begin
    let expected = Eval.run_result ~workload c.Compiler.source in
    if not (Eval.result_equal expected result) then
      raise
        (Mismatch
           (Fmt.str
              "@[<v>kernel %s (%d cores): simulated result differs from \
               reference@,expected: %a@,got: %a@]"
              c.Compiler.source.Kernel.name c.Compiler.stats.Compiler.n_partitions
              Eval.pp_result expected Eval.pp_result result))
  end;
  ( {
      cycles;
      result;
      queues_used = Sim.queues_used sim;
      instrs =
        Array.fold_left
          (fun acc (cs : Sim.core_stats) -> acc + cs.Sim.instrs)
          0 sim.Sim.stats;
      load_counters = Sim.load_counters sim;
      telemetry = Report.of_sim ~compiled:c sim;
    },
    sim )

let run ?check ?workload ?core_map ?tracing ?trace_capacity ?engine c =
  fst (run_with_sim ?check ?workload ?core_map ?tracing ?trace_capacity ?engine c)

(** Collect profile feedback by running the sequential version — the
    paper's profile-directed feedback loop (Sections III-B and III-I). *)
let profile_feedback ?(machine = Config.default) ?engine ~workload kernel =
  let seq = Compiler.compile_sequential ~machine kernel in
  let r = run ~check:false ~workload ?engine seq in
  Finepar_analysis.Profile.of_counters r.load_counters

(** Compile and run the sequential baseline and an [n]-core parallel
    version; returns (sequential run, parallel run, speedup). *)
let speedup ?(machine = Config.default) ?(config = Compiler.default_config ())
    ?engine ~workload ~cores kernel =
  let config = { config with Compiler.machine; cores } in
  let seq = Compiler.compile_sequential ~machine kernel in
  let seq_run = run ~workload ?engine seq in
  let profile =
    Finepar_analysis.Profile.of_counters seq_run.load_counters
  in
  let par = Compiler.compile { config with Compiler.profile } kernel in
  let par_run = run ~workload ?engine par in
  let s = float_of_int seq_run.cycles /. float_of_int par_run.cycles in
  (seq_run, par_run, s)

(** Multi-version compilation with dynamic feedback.  Section III-I
    (limitation 1): the compiler "can generate multiple code versions for
    regions with potential, and rely on a runtime system with dynamic
    feedback to decide which code version to execute".  We compile the
    candidate configurations, measure each once, and keep the fastest. *)
type tuned = {
  best_name : string;
  best : Compiler.compiled;
  best_cycles : int;
  candidates : (string * int) list;  (** configuration -> cycles *)
}

let autotune_candidates (base : Compiler.config) =
  [
    ("sequential", { base with Compiler.cores = 1 });
    ("baseline", base);
    ("speculation", { base with Compiler.speculation = true });
    ("throughput", { base with Compiler.throughput = true });
    ("speculation+throughput",
     { base with Compiler.speculation = true; throughput = true });
    ("multi-pair", { base with Compiler.algorithm = `Multi_pair });
  ]

(* The preference key behind {!compare_candidates}: cheaper configurations
   first, so a cycle tie resolves to the simplest machine.  Every knob that
   distinguishes candidates appears here; any configs equal under this key
   are observationally identical to the search. *)
let config_preference (c : Compiler.config) =
  let alg = match c.Compiler.algorithm with `Greedy -> 0 | `Multi_pair -> 1 in
  let comm =
    match c.Compiler.comm_mode with
    | Finepar_transform.Comm.Queues -> 0
    | Finepar_transform.Comm.Shared_cache -> 1
  in
  let w = c.Compiler.weights in
  ( c.Compiler.cores,
    (Bool.to_int c.Compiler.speculation, Bool.to_int c.Compiler.throughput, alg),
    ( c.Compiler.machine.Config.transfer_latency,
      c.Compiler.machine.Config.queue_len,
      c.Compiler.machine.Config.issue_width,
      comm ),
    ( (w.Finepar_partition.Affinity.w_dep,
       w.Finepar_partition.Affinity.w_time,
       w.Finepar_partition.Affinity.w_prox),
      c.Compiler.max_height,
      c.Compiler.max_queue_pairs ) )

let compare_candidates (cy_a, (a : Compiler.config)) (cy_b, (b : Compiler.config)) =
  match compare (cy_a : int) cy_b with
  | 0 -> compare (config_preference a) (config_preference b)
  | n -> n

let autotune ?(machine = Config.default) ?(cores = 4) ?(workload = [])
    ?(check = true) ?engine kernel =
  let seq = Compiler.compile_sequential ~machine kernel in
  (* The same check policy applies to the sequential reference and every
     candidate: checking happens after the simulation, so cycle counts are
     unaffected either way, but a uniform policy keeps the measurement
     protocol honest and the error behaviour consistent. *)
  let seq_run = run ~check ~workload ?engine seq in
  let profile = Finepar_analysis.Profile.of_counters seq_run.load_counters in
  let base = { (Compiler.default_config ~cores ()) with Compiler.machine; profile } in
  let measured =
    List.map
      (fun (name, config) ->
        let c = Compiler.compile config kernel in
        let r = run ~check ~workload ?engine c in
        (name, c, r.cycles))
      (autotune_candidates base)
  in
  let best_name, best, best_cycles =
    List.fold_left
      (fun (bn, bc, bcy) (n, c, cy) ->
        (* Strict [< 0]: ties keep the earlier candidate, so the winner is
           independent of how a parallel search happened to interleave. *)
        if compare_candidates (cy, c.Compiler.config) (bcy, bc.Compiler.config) < 0
        then (n, c, cy)
        else (bn, bc, bcy))
      (let n, c, cy = List.hd measured in
       (n, c, cy))
      (List.tl measured)
  in
  {
    best_name;
    best;
    best_cycles;
    candidates = List.map (fun (n, _, cy) -> (n, cy)) measured;
  }
