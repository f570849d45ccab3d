(** Running compiled kernels on the simulator, checking their results
    against the reference evaluator, and measuring speedups. *)

(** Outcome of one simulation. *)
type run = {
  cycles : int;  (** cycle of the last core's halt *)
  result : Finepar_ir.Eval.result;  (** live-out scalars + written arrays *)
  queues_used : int;  (** distinct (src, dst) core pairs that carried values *)
  instrs : int;  (** instructions issued across all cores *)
  load_counters : (string * int * int) list;
      (** per array: (name, loads, L1 misses) — profile-feedback input *)
  telemetry : Report.t;
      (** per-core / per-queue / per-fiber cycle attribution *)
}

(** Raised by {!run} when the simulated outputs differ from the reference
    evaluator in any bit. *)
exception Mismatch of string

(** [run compiled] simulates a compiled kernel.
    @param check compare outputs bit-for-bit against the reference
      evaluator and raise {!Mismatch} on any difference (default [true])
    @param workload initial array contents
    @param core_map logical-core (hardware thread) to physical-core
      placement; several threads on one physical core share its issue
      slot and L1 (SMT).  Defaults to one thread per core.
    @param tracing record per-cycle issue/stall events in the simulator's
      bounded ring buffer (default [false])
    @param trace_capacity ring capacity when tracing
      (default {!Finepar_machine.Sim.default_trace_capacity})
    @param engine simulation engine (default
      {!Finepar_machine.Engine.default}, the cycle stepper); both engines
      are cycle-exact to each other.  The compiled engine's one-time
      specialize step is timed as its own ["specialize"] tracer span
      nested under the sim span. *)
val run :
  ?check:bool ->
  ?workload:Finepar_ir.Eval.workload ->
  ?core_map:int array ->
  ?tracing:bool ->
  ?trace_capacity:int ->
  ?engine:Finepar_machine.Engine.t ->
  Compiler.compiled ->
  run

(** Like {!run}, but also returns the simulator, whose event trace feeds
    {!Report.chrome_trace}. *)
val run_with_sim :
  ?check:bool ->
  ?workload:Finepar_ir.Eval.workload ->
  ?core_map:int array ->
  ?tracing:bool ->
  ?trace_capacity:int ->
  ?engine:Finepar_machine.Engine.t ->
  Compiler.compiled ->
  run * Finepar_machine.Sim.t

(** Collect per-array miss-rate feedback from a sequential run — the
    paper's profile-directed feedback (Sections III-B, III-I). *)
val profile_feedback :
  ?machine:Finepar_machine.Config.t ->
  ?engine:Finepar_machine.Engine.t ->
  workload:Finepar_ir.Eval.workload ->
  Finepar_ir.Kernel.t ->
  Finepar_analysis.Profile.t

(** [speedup ~workload ~cores kernel] compiles and runs the sequential
    baseline, feeds its memory profile back into an [cores]-way parallel
    compilation, runs that too, and returns
    [(sequential run, parallel run, speedup)]. *)
val speedup :
  ?machine:Finepar_machine.Config.t ->
  ?config:Compiler.config ->
  ?engine:Finepar_machine.Engine.t ->
  workload:Finepar_ir.Eval.workload ->
  cores:int ->
  Finepar_ir.Kernel.t ->
  run * run * float

(** Result of {!autotune}. *)
type tuned = {
  best_name : string;
  best : Compiler.compiled;
  best_cycles : int;
  candidates : (string * int) list;  (** configuration name -> cycles *)
}

(** The fixed candidate enumeration behind {!autotune} — sequential,
    baseline, speculation, throughput, their combination, and multi-pair
    merge, all derived from [base].  Shared with the service-side autotune
    and with [Finepar_tune]'s generation 0 so the three can never drift. *)
val autotune_candidates :
  Compiler.config -> (string * Compiler.config) list

(** Deterministic candidate ordering: fewer cycles first, then the
    simpler configuration — fewer cores; speculation off before on;
    throughput off before on; [`Greedy] before [`Multi_pair]; lower
    transfer latency; shorter queues; then the remaining knobs (weights,
    max height, max queue pairs).  Candidates that still compare equal
    are observationally identical, and selection keeps the earlier one —
    so a parallel search merge reproduces the same winner at any [-j]. *)
val compare_candidates :
  int * Compiler.config -> int * Compiler.config -> int

(** Multi-version compilation with dynamic feedback.  Section III-I
    (limitation 1): the compiler "can generate multiple code versions for
    regions with potential, and rely on a runtime system with dynamic
    feedback to decide which code version to execute".  Compiles the
    candidate configurations (see {!autotune_candidates}), measures each
    once, and keeps the fastest under {!compare_candidates}.
    @param check applied uniformly to the sequential (profiling)
      reference and every candidate (default [true]); checking happens
      after simulation, so cycle counts do not depend on it. *)
val autotune :
  ?machine:Finepar_machine.Config.t ->
  ?cores:int ->
  ?workload:Finepar_ir.Eval.workload ->
  ?check:bool ->
  ?engine:Finepar_machine.Engine.t ->
  Finepar_ir.Kernel.t ->
  tuned
