(** Simulation engine selection. *)

type t =
  | Cycle  (** the reference stepper: every core, every cycle *)
  | Compiled
      (** pre-compiled fast-forward: each core's program is specialized
          once into a flat array of closures (operands resolved to
          scoreboard slots, latencies, branch targets and queue endpoints
          baked in), and cycles in which no core can issue are skipped in
          bulk.  Cycle-exact with {!Cycle} by contract: identical cycle
          counts, architectural outputs, telemetry reports and [Stuck]
          payloads. *)

val default : t
(** {!Cycle}, the reference semantics. *)

val all : t list
(** [[Cycle; Compiled]]: the reference first, so differential checks can
    compare every later engine against the head. *)

val to_string : t -> string
val of_string : string -> t option
