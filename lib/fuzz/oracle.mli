(** The differential oracle set: static-verifier acceptance,
    bit-exactness against the reference evaluator, telemetry
    invariants, run-to-run determinism, cross-engine cycle-exactness
    (cycle stepper vs compiled fast-forward), and cross-core-count
    agreement of observable results.

    Failure oracle names: "well-formed", "verifier", "compiler-crash",
    "bit-exact", "deadlock" (simulator deadlock), "max-cycles" (cycle
    budget exhausted), "progress" (faulting execution),
    "simulator-crash", "telemetry", "determinism", "cross-engine",
    "cross-core". *)

type stats = {
  cycles : int;
  n_partitions : int;
  queues_used : int;
  instrs : int;
  speculated_ifs : int;
}

type failure = { oracle : string; message : string }

type outcome = Pass of stats | Fail of failure

type compile_fn =
  Finepar.Compiler.config -> Finepar_ir.Kernel.t -> Finepar.Compiler.compiled

val check :
  ?compile:compile_fn -> ?engine:Finepar_machine.Engine.t -> Gen.case -> outcome
(** Run the full oracle set on one case.  Never raises; [compile]
    defaults to {!Finepar.Compiler.compile} and exists so tests can
    inject deliberate miscompiles.  [engine] selects the primary
    simulation engine (default {!Finepar_machine.Engine.default}); the
    cross-engine oracle always runs every other engine and demands
    identical cycles, outputs, and telemetry. *)

val pp_failure : Format.formatter -> failure -> unit
