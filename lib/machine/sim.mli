(** Cycle-level multi-core simulator.

    Cores are in-order, with a register scoreboard: an instruction
    issues once its operands are ready, and at most
    [Config.issue_width] instructions issue per core per cycle (default
    1, i.e. single-issue); results become available after the operation
    latency.  At width W >= 2 a core issues a bundle: after the first
    issue of a cycle it keeps issuing while execution falls straight
    through (pc + 1, no extra penalty, not halted) and the next
    instruction's operands and queue gates are ready; a refused extra
    slot records no stall.  Loads consult a private L1 / shared L2 hierarchy.
    Enqueue and dequeue follow the semantics of Section II and Fig. 11:
    enqueue blocks while the queue is full, dequeue blocks until the head
    value's [enqueue time + transfer latency] has elapsed.

    The simulator executes real values, so the outputs of a parallel run
    can be compared bit-for-bit against the reference evaluator.

    Telemetry: every (core, cycle) is attributed to exactly one counter
    (issue, a stall class, branch-penalty wait, SMT arbitration loss, or
    post-halt idle); stall episodes and queue occupancy feed
    {!Finepar_telemetry.Histogram}s; a bounded ring buffer keeps the most
    recent trace events; and issue/stall cycles are charged to the source
    fiber recorded in the program's provenance. *)

module Telemetry = Finepar_telemetry

module Engine = Engine
(** Engine selection for {!run}: the reference cycle stepper, or the
    cycle-exact compiled engine (pre-specialized closures with quiescent
    fast-forward). *)

(** What a non-halted core is waiting on when the simulator gives up. *)
type wait =
  | Wait_queue_full of int  (** blocked enqueue: queue id *)
  | Wait_queue_empty of int
      (** blocked dequeue (empty, or head not yet visible): queue id *)
  | Wait_operand  (** a source register's result is still in flight *)
  | Wait_issue  (** not blocked per se (branch penalty, SMT arbitration) *)

type blocked_core = {
  bc_core : int;
  bc_pc : int;
  bc_instr : Isa.instr;
  bc_wait : wait;
}

type queue_occupancy = {
  qo_id : int;
  qo_spec : Isa.queue_spec;
  qo_occupancy : int;
  qo_capacity : int;
}

type stuck_reason =
  | Deadlock of { window : int }
      (** no core issued for [window] consecutive cycles *)
  | Max_cycles of { limit : int }  (** the configured cycle budget ran out *)
  | Fault of string
      (** a malformed execution: out-of-bounds access, type misuse of a
          register, running off the end of a core's code *)

type stuck = {
  st_reason : stuck_reason;
  st_cycle : int;
  st_blocked : blocked_core list;
      (** every non-halted core with the instruction it is blocked on *)
  st_queues : queue_occupancy list;  (** every queue's occupancy *)
}

exception Stuck of stuck

type queue_state = {
  spec : Isa.queue_spec;
  items : (Finepar_ir.Types.value * int) Queue.t;
  mutable transfers : int;
  mutable max_occupancy : int;
  occupancy : Telemetry.Histogram.t;
      (** occupancy after each enqueue; bucket total = [transfers] *)
}

type core_stats = {
  mutable instrs : int;
  mutable stall_operand : int;
  mutable stall_queue_full : int;
  mutable stall_queue_empty : int;
  mutable branch_wait : int;  (** cycles lost to taken-branch penalties *)
  mutable smt_wait : int;
      (** cycles an eligible thread lost the shared issue slot (SMT) *)
  mutable idle_after_halt : int;
  mutable finished_at : int;
  mutable dual_issued : int;
      (** instructions issued in slots >= 2 of an issue bundle (always 0
          at issue width 1) *)
}

val stall_total : core_stats -> int
(** Total cycles this core spent blocked on an issue attempt. *)

val accounted_cycles : core_stats -> int
(** [instrs - dual_issued + stalls + branch_wait + smt_wait +
    idle_after_halt]; equals the run's total cycle count for every core
    after {!run} (extra-slot issues share their cycle with the bundle's
    first issue). *)

type event =
  | Ev_issue of { core : int; cycle : int; pc : int; instr : Isa.instr }
  | Ev_stall of {
      core : int;
      cycle : int;
      pc : int;
      reason : Telemetry.Stall.t;
    }

type t = {
  config : Config.t;
  program : Program.t;
  memory : Finepar_ir.Types.value array array;
  queues : queue_state array;
  core_map : int array;
  l1 : Cache.t array;
  l2 : Cache.t;
  regs : Finepar_ir.Types.value array array;
  reg_ready : int array array;
  pc : int array;
  min_issue : int array;
  halted : bool array;
  stats : core_stats array;
  rr : int array;
  threads_of : int list array;
  loads : int array;
  l1_misses : int array;
  mutable cycles : int;
  trace : event Telemetry.Ring.t;
  tracing : bool;
  stall_hist : Telemetry.Histogram.t array;
      (** per logical core: durations of contiguous stall episodes *)
  stall_run_class : int array;
  stall_run_len : int array;
  fiber_issue : int array;
  fiber_stall : int array;
}

val default_trace_capacity : int

val create :
  ?tracing:bool ->
  ?trace_capacity:int ->
  ?core_map:int array ->
  config:Config.t ->
  initial:(string * Finepar_ir.Types.value array) list ->
  Program.t -> t

val occupancies : t -> queue_occupancy list
(** Occupancy of every queue right now. *)

val wait_for_cycle : stuck -> blocked_core list option
(** The dynamic wait-for cycle among blocked cores, if one exists: a
    core blocked on an empty queue waits for the queue's source core, a
    core blocked on a full queue waits for its destination core. *)

val stuck_message : stuck -> string
(** Human-readable rendering of a {!stuck} payload: reason, blocked
    cores, queue occupancies, and the wait-for cycle for deadlocks. *)

val pp_wait : Format.formatter -> wait -> unit
val pp_blocked_core : Format.formatter -> blocked_core -> unit
val pp_queue_occupancy : Format.formatter -> queue_occupancy -> unit

type specialized
(** A sim instance's program pre-compiled for {!Engine.Compiled}: per
    core, a flat array of closures (one per pc) with operand checks
    unrolled and destinations, latencies, branch targets, queue
    endpoints, fiber slots and stall reasons resolved to direct slots
    and constants.  Valid only for the instance it was built from. *)

val specialize : t -> specialized
(** Compile [t]'s program into {!specialized} form.  O(total
    instructions); typically well under a millisecond.  Pure
    preparation: no simulation state changes. *)

val run : ?engine:Engine.t -> ?specialized:specialized -> t -> int
(** Run to completion under the selected engine ([Engine.default], the
    cycle stepper, when omitted); returns the final cycle count.  The
    two engines are cycle-exact to each other: identical cycle counts,
    architectural outputs, telemetry, and {!Stuck} payloads.
    [specialized] is only consulted by {!Engine.Compiled} (which
    otherwise calls {!specialize} itself) and must come from
    {!specialize} on this same [t] — [Invalid_argument] otherwise. *)

val array_contents : t -> String.t -> Finepar_ir.Types.value array
val reg_value : t -> int -> int -> Finepar_ir.Types.value
val load_counters : t -> (string * int * int) list
val queue_stats : t -> (Isa.queue_spec * int * int) list
val queues_used : t -> int
val queues_empty : t -> bool

val events : t -> event list
(** Traced events, oldest first; bounded by the trace ring — check
    {!dropped_events} for truncation. *)

val dropped_events : t -> int

val fiber_counters : t -> (int * int * int) list
(** (fiber id, issue cycles, stall cycles); fiber id
    [Program.no_fiber] (-1) is runtime glue. *)

val wait_cycles : t -> int
(** Total branch-penalty + SMT-loss + post-halt idle cycles across
    cores. *)
