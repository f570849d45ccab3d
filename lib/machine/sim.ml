(** Cycle-level multi-core simulator.

    Cores are in-order, with a register scoreboard: an instruction
    issues once its operands are ready, and at most
    [Config.issue_width] instructions issue per core per cycle (default
    1); results become available after the operation latency.  At width
    W >= 2 a core issues a bundle: after the first issue of a cycle it
    keeps issuing as long as execution fell straight through (pc
    advanced by one, no extra penalty pending, not halted) and the next
    instruction's operands and queue gates are ready — so a RAW hazard,
    a taken branch, or a blocked queue ends the bundle, and a refused
    extra slot records no stall (the cycle is already accounted to the
    bundle's first issue).  Loads consult a private L1 / shared L2 hierarchy.
    Enqueue and dequeue follow the semantics of Section II and Fig. 11:
    enqueue blocks while the queue is full, dequeue blocks until the head
    value's [enqueue time + transfer latency] has elapsed.

    The simulator executes real values, so the outputs of a parallel run
    can be compared bit-for-bit against the reference evaluator. *)

open Finepar_ir

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

(** Structured diagnosis raised with {!Stuck}: the reason, the cycle the
    simulator gave up at, every non-halted core with the instruction it
    is blocked on, and every queue's occupancy — enough to render the
    dynamic wait-for cycle of a deadlock. *)
type stuck = {
  st_reason : stuck_reason;
  st_cycle : int;
  st_blocked : blocked_core list;
  st_queues : queue_occupancy list;
}

exception Stuck of stuck

module Telemetry = Finepar_telemetry
module Engine = Engine

type queue_state = {
  spec : Isa.queue_spec;
  items : (Types.value * int) Queue.t;  (** value, visible-at cycle *)
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

(** Total cycles this core spent blocked on an issue attempt. *)
let stall_total (s : core_stats) =
  s.stall_operand + s.stall_queue_full + s.stall_queue_empty

(** Every cycle of a core is exactly one of: issue, stall, branch-penalty
    wait, SMT arbitration loss, or post-halt idle — so this equals the
    run's total cycle count for every core (the invariant the telemetry
    tests check).  Extra-slot issues of a bundle share their cycle with
    the first issue, so they are subtracted back out via
    [dual_issued]. *)
let accounted_cycles (s : core_stats) =
  s.instrs - s.dual_issued + stall_total s + s.branch_wait + s.smt_wait
  + s.idle_after_halt

type event =
  | Ev_issue of { core : int; cycle : int; pc : int; instr : Isa.instr }
  | Ev_stall of { core : int; cycle : int; pc : int; reason : Telemetry.Stall.t }

type t = {
  config : Config.t;
  program : Program.t;
  memory : Types.value array array;  (** array id -> contents *)
  queues : queue_state array;
  core_map : int array;
      (** logical core (hardware thread) -> physical core.  With the
          identity map every thread has its own core; mapping several
          threads to one core models SMT: they share that core's single
          issue slot and its L1 (Section II discusses this option). *)
  l1 : Cache.t array;  (** per physical core *)
  l2 : Cache.t;
  regs : Types.value array array;
  reg_ready : int array array;
  pc : int array;
  min_issue : int array;
  halted : bool array;
  stats : core_stats array;
  rr : int array;  (** per physical core: SMT round-robin cursor *)
  threads_of : int list array;  (** physical core -> logical cores *)
  loads : int array;  (** per array id *)
  l1_misses : int array;
  mutable cycles : int;
  trace : event Telemetry.Ring.t;
      (** bounded; only filled when tracing, oldest events overwritten *)
  tracing : bool;
  stall_hist : Telemetry.Histogram.t array;
      (** per logical core: durations of contiguous stall episodes *)
  stall_run_class : int array;  (** current episode's stall class, -1 none *)
  stall_run_len : int array;
  fiber_issue : int array;
      (** per fiber id + 1 (slot 0 = runtime glue): issue cycles *)
  fiber_stall : int array;  (** same indexing: stall cycles *)
}

let default_trace_capacity = 65_536

let create ?(tracing = false) ?(trace_capacity = default_trace_capacity)
    ?core_map ~(config : Config.t)
    ~(initial : (string * Types.value array) list) (program : Program.t) =
  let n = Array.length program.Program.cores in
  let core_map =
    match core_map with
    | Some m ->
      if Array.length m <> n then
        invalid_arg "Sim.create: core_map length mismatch";
      Array.copy m
    | None -> Array.init n Fun.id
  in
  let n_phys = 1 + Array.fold_left max 0 core_map in
  let threads_of = Array.make n_phys [] in
  for t = n - 1 downto 0 do
    threads_of.(core_map.(t)) <- t :: threads_of.(core_map.(t))
  done;
  let memory =
    Array.map
      (fun (l : Program.array_layout) ->
        match List.assoc_opt l.Program.arr_name initial with
        | Some contents ->
          if Array.length contents <> l.Program.arr_len then
            invalid_arg
              (Printf.sprintf "Sim.create: %s has %d elements, expected %d"
                 l.Program.arr_name (Array.length contents) l.Program.arr_len);
          Array.copy contents
        | None -> Array.make l.Program.arr_len (Types.zero_of_ty l.Program.arr_ty))
      program.Program.arrays
  in
  {
    config;
    program;
    memory;
    queues =
      Array.map
        (fun spec ->
          {
            spec;
            items = Queue.create ();
            transfers = 0;
            max_occupancy = 0;
            occupancy =
              Telemetry.Histogram.create
                ~bounds:
                  (Telemetry.Histogram.linear_bounds
                     (max 1 config.Config.queue_len));
          })
        program.Program.queues;
    core_map;
    l1 =
      Array.init n_phys (fun _ ->
          Cache.create ~bytes:config.Config.l1_bytes ~line:config.Config.l1_line);
    l2 = Cache.create ~bytes:config.Config.l2_bytes ~line:config.Config.l1_line;
    regs =
      Array.map
        (fun (c : Program.core_program) ->
          Array.make c.Program.n_regs (Types.VInt 0))
        program.Program.cores;
    reg_ready =
      Array.map
        (fun (c : Program.core_program) -> Array.make c.Program.n_regs 0)
        program.Program.cores;
    pc = Array.make n 0;
    min_issue = Array.make n 0;
    halted = Array.make n false;
    stats =
      Array.init n (fun _ ->
          {
            instrs = 0;
            stall_operand = 0;
            stall_queue_full = 0;
            stall_queue_empty = 0;
            branch_wait = 0;
            smt_wait = 0;
            idle_after_halt = 0;
            finished_at = 0;
            dual_issued = 0;
          });
    rr = Array.make n_phys 0;
    threads_of;
    loads = Array.make (Array.length program.Program.arrays) 0;
    l1_misses = Array.make (Array.length program.Program.arrays) 0;
    cycles = 0;
    trace =
      Telemetry.Ring.create ~capacity:(if tracing then trace_capacity else 0);
    tracing;
    stall_hist =
      Array.init n (fun _ ->
          Telemetry.Histogram.create
            ~bounds:(Telemetry.Histogram.exponential_bounds 16));
    stall_run_class = Array.make n (-1);
    stall_run_len = Array.make n 0;
    fiber_issue = Array.make (Program.max_fiber program + 2) 0;
    fiber_stall = Array.make (Program.max_fiber program + 2) 0;
  }

let addr_of t arr idx = t.program.Program.arrays.(arr).Program.arr_base + (idx * 8)

let load_latency t core arr idx =
  let addr = addr_of t arr idx in
  t.loads.(arr) <- t.loads.(arr) + 1;
  if Cache.access t.l1.(t.core_map.(core)) addr then t.config.Config.l1_hit
  else begin
    t.l1_misses.(arr) <- t.l1_misses.(arr) + 1;
    if Cache.access t.l2 addr then t.config.Config.l2_hit
    else t.config.Config.mem_latency
  end

let store_effects t core arr idx =
  let addr = addr_of t arr idx in
  let phys = t.core_map.(core) in
  ignore (Cache.access t.l1.(phys) addr);
  ignore (Cache.access t.l2 addr);
  (* Invalidate other private L1 copies so a later consumer pays a miss. *)
  Array.iteri (fun k l1 -> if k <> phys then Cache.invalidate l1 addr) t.l1

(** Occupancy of every queue right now. *)
let occupancies t =
  Array.to_list
    (Array.mapi
       (fun i (q : queue_state) ->
         {
           qo_id = i;
           qo_spec = q.spec;
           qo_occupancy = Queue.length q.items;
           qo_capacity = t.config.Config.queue_len;
         })
       t.queues)

(* Classify what [core] is waiting on at cycle [cy], mirroring the issue
   conditions in [step_core] without side effects. *)
let wait_of t core cy =
  let prog = t.program.Program.cores.(core) in
  let pc = t.pc.(core) in
  if pc >= Array.length prog.Program.code then Wait_issue
  else
    let instr = prog.Program.code.(pc) in
    let ready = t.reg_ready.(core) in
    if not (List.for_all (fun r -> ready.(r) <= cy) (Isa.srcs instr)) then
      Wait_operand
    else
      match instr with
      | Isa.Enq (q, _)
        when Queue.length t.queues.(q).items >= t.config.Config.queue_len ->
        Wait_queue_full q
      | Isa.Deq (_, q) -> (
        match Queue.peek_opt t.queues.(q).items with
        | Some (_, visible_at) when visible_at <= cy -> Wait_issue
        | Some _ | None -> Wait_queue_empty q)
      | _ -> Wait_issue

(** Every non-halted core with the instruction it is blocked on. *)
let blocked_of t cy =
  let out = ref [] in
  Array.iteri
    (fun core halted ->
      if not halted then begin
        let prog = t.program.Program.cores.(core) in
        let pc = t.pc.(core) in
        if pc < Array.length prog.Program.code then
          out :=
            {
              bc_core = core;
              bc_pc = pc;
              bc_instr = prog.Program.code.(pc);
              bc_wait = wait_of t core cy;
            }
            :: !out
      end)
    t.halted;
  List.rev !out

(* Snapshot the machine state into a structured {!stuck} payload; uses
   [t.cycles], which [run] keeps current while executing. *)
let snapshot t reason =
  {
    st_reason = reason;
    st_cycle = t.cycles;
    st_blocked = blocked_of t t.cycles;
    st_queues = occupancies t;
  }

let fault t fmt =
  Format.kasprintf (fun m -> raise (Stuck (snapshot t (Fault m)))) fmt

let check_idx t arr idx =
  let len = t.program.Program.arrays.(arr).Program.arr_len in
  if idx < 0 || idx >= len then
    fault t "array %s index %d out of bounds [0, %d)"
      t.program.Program.arrays.(arr).Program.arr_name idx len

let int_of_reg t core r =
  match t.regs.(core).(r) with
  | Types.VInt i -> i
  | Types.VFloat _ -> fault t "core %d: r%d used as integer holds f64" core r

let record_event t ev = if t.tracing then Telemetry.Ring.push t.trace ev

(* Fiber the instruction at [pc] on [core] was generated from, shifted by
   one so slot 0 holds runtime glue ([Program.no_fiber]). *)
let fiber_slot t core pc =
  t.program.Program.cores.(core).Program.fiber_of.(pc) + 1

(* Close the current stall episode, recording its duration. *)
let flush_stall_run t core =
  if t.stall_run_class.(core) >= 0 then begin
    Telemetry.Histogram.observe t.stall_hist.(core) t.stall_run_len.(core);
    t.stall_run_class.(core) <- -1;
    t.stall_run_len.(core) <- 0
  end

(* One cycle blocked on [reason]: bump the per-class counter, extend or
   open a stall episode, attribute the cycle to the blocked instruction's
   fiber, and trace the event. *)
let note_stall t core cy pc reason =
  let stats = t.stats.(core) in
  (match reason with
  | Telemetry.Stall.Operand -> stats.stall_operand <- stats.stall_operand + 1
  | Telemetry.Stall.Queue_full _ ->
    stats.stall_queue_full <- stats.stall_queue_full + 1
  | Telemetry.Stall.Queue_empty _ ->
    stats.stall_queue_empty <- stats.stall_queue_empty + 1);
  let cls = Telemetry.Stall.class_index reason in
  if t.stall_run_class.(core) = cls then
    t.stall_run_len.(core) <- t.stall_run_len.(core) + 1
  else begin
    flush_stall_run t core;
    t.stall_run_class.(core) <- cls;
    t.stall_run_len.(core) <- 1
  end;
  let slot = fiber_slot t core pc in
  t.fiber_stall.(slot) <- t.fiber_stall.(slot) + 1;
  record_event t (Ev_stall { core; cycle = cy; pc; reason })

(* An instruction issued at [pc]: close any stall episode and attribute
   the cycle to its fiber. *)
let note_issue t core pc =
  flush_stall_run t core;
  let slot = fiber_slot t core pc in
  t.fiber_issue.(slot) <- t.fiber_issue.(slot) + 1

(** Attempt to issue the next instruction of [core] at cycle [cy].
    Returns [true] if an instruction issued. *)
let step_core t core cy =
  let cfg = t.config in
  let stats = t.stats.(core) in
  let prog = t.program.Program.cores.(core) in
  let pc = t.pc.(core) in
  if pc >= Array.length prog.Program.code then
    fault t "core %d ran off the end of its code" core;
  let instr = prog.Program.code.(pc) in
  let regs = t.regs.(core) and ready = t.reg_ready.(core) in
  let operands_ready =
    List.for_all (fun r -> ready.(r) <= cy) (Isa.srcs instr)
  in
  if not operands_ready then begin
    note_stall t core cy pc Telemetry.Stall.Operand;
    false
  end
  else begin
    let finish_simple latency value_opt =
      (match (Isa.dst instr, value_opt) with
      | Some d, Some v ->
        regs.(d) <- v;
        ready.(d) <- cy + latency
      | Some _, None | None, Some _ -> assert false
      | None, None -> ());
      t.pc.(core) <- pc + 1;
      t.min_issue.(core) <- cy + 1;
      stats.instrs <- stats.instrs + 1;
      note_issue t core pc;
      record_event t (Ev_issue { core; cycle = cy; pc; instr });
      true
    in
    let branch_to taken label =
      t.pc.(core) <-
        (if taken then prog.Program.label_pos.(label) else pc + 1);
      t.min_issue.(core) <-
        (cy + 1 + if taken then cfg.Config.branch_taken_penalty else 0);
      stats.instrs <- stats.instrs + 1;
      note_issue t core pc;
      record_event t (Ev_issue { core; cycle = cy; pc; instr });
      true
    in
    match instr with
    | Isa.Li (_, v) -> finish_simple 1 (Some v)
    | Isa.Mov (_, s) -> finish_simple 1 (Some regs.(s))
    | Isa.Un (op, _, s) ->
      let v = regs.(s) in
      finish_simple
        (Op_cost.unop_latency op (Types.ty_of_value v))
        (Some (Types.apply_unop op v))
    | Isa.Bin (op, _, a, b) ->
      let va = regs.(a) and vb = regs.(b) in
      finish_simple
        (Op_cost.binop_latency op (Types.ty_of_value va))
        (Some (Types.apply_binop op va vb))
    | Isa.Sel (_, c, tr, fr) ->
      let v = if Types.value_is_true regs.(c) then regs.(tr) else regs.(fr) in
      finish_simple Op_cost.select_latency (Some v)
    | Isa.Load (_, arr, ir) ->
      let idx = int_of_reg t core ir in
      check_idx t arr idx;
      let latency = load_latency t core arr idx in
      finish_simple latency (Some t.memory.(arr).(idx))
    | Isa.Store (arr, ir, sr) ->
      let idx = int_of_reg t core ir in
      check_idx t arr idx;
      t.memory.(arr).(idx) <- regs.(sr);
      store_effects t core arr idx;
      finish_simple 1 None
    | Isa.Enq (q, sr) ->
      let qs = t.queues.(q) in
      if Queue.length qs.items >= cfg.Config.queue_len then begin
        note_stall t core cy pc (Telemetry.Stall.Queue_full q);
        false
      end
      else begin
        Queue.add (regs.(sr), cy + cfg.Config.transfer_latency) qs.items;
        qs.transfers <- qs.transfers + 1;
        qs.max_occupancy <- max qs.max_occupancy (Queue.length qs.items);
        Telemetry.Histogram.observe qs.occupancy (Queue.length qs.items);
        finish_simple 1 None
      end
    | Isa.Deq (_, q) ->
      let qs = t.queues.(q) in
      (match Queue.peek_opt qs.items with
      | Some (v, visible_at) when visible_at <= cy ->
        ignore (Queue.pop qs.items);
        finish_simple cfg.Config.deq_latency (Some v)
      | Some _ | None ->
        note_stall t core cy pc (Telemetry.Stall.Queue_empty q);
        false)
    | Isa.Bz (r, l) -> branch_to (not (Types.value_is_true regs.(r))) l
    | Isa.Bnz (r, l) -> branch_to (Types.value_is_true regs.(r)) l
    | Isa.Jmp l -> branch_to true l
    | Isa.Halt ->
      t.halted.(core) <- true;
      stats.finished_at <- cy;
      stats.instrs <- stats.instrs + 1;
      note_issue t core pc;
      record_event t (Ev_issue { core; cycle = cy; pc; instr });
      true
  end

(* Whether [core]'s next instruction would issue at [cy], with no side
   effects — the gate for the extra slots of an issue bundle, where a
   refusal must not record a stall (the cycle is already accounted to
   the bundle's first issue).  Mirrors [step_core]'s issue conditions
   exactly; a pc off the end of the code is not issuable, so the
   off-the-end fault fires on the next cycle's slot-1 attempt, exactly
   as at width 1. *)
let issuable t core cy =
  let prog = t.program.Program.cores.(core) in
  let pc = t.pc.(core) in
  pc < Array.length prog.Program.code
  &&
  let instr = prog.Program.code.(pc) in
  let ready = t.reg_ready.(core) in
  List.for_all (fun r -> ready.(r) <= cy) (Isa.srcs instr)
  &&
  match instr with
  | Isa.Enq (q, _) ->
    Queue.length t.queues.(q).items < t.config.Config.queue_len
  | Isa.Deq (_, q) -> (
    match Queue.peek_opt t.queues.(q).items with
    | Some (_, visible_at) -> visible_at <= cy
    | None -> false)
  | _ -> true

(* Fill the remaining slots of [core]'s issue bundle at [cy], after the
   slot-1 issue from [prev_pc] succeeded.  Continuation requires a pure
   fall-through — pc advanced by exactly one, [min_issue] is the plain
   [cy + 1] (no taken-branch penalty pending), not halted — plus
   [issuable]; each extra issue runs the full [step_core] semantics and
   is counted in [dual_issued] so the accounting invariant still sums
   to one per (core, cycle). *)
let issue_rest t core cy ~prev_pc =
  let width = t.config.Config.issue_width in
  let stats = t.stats.(core) in
  let prev = ref prev_pc in
  let slot = ref 1 in
  let continue_ = ref true in
  while !continue_ && !slot < width do
    if
      (not t.halted.(core))
      && t.pc.(core) = !prev + 1
      && t.min_issue.(core) = cy + 1
      && issuable t core cy
    then begin
      let pc0 = t.pc.(core) in
      if step_core t core cy then begin
        stats.dual_issued <- stats.dual_issued + 1;
        prev := pc0;
        incr slot
      end
      else continue_ := false
    end
    else continue_ := false
  done

let all_halted t = Array.for_all Fun.id t.halted

let pp_wait ppf = function
  | Wait_queue_full q -> Fmt.pf ppf "queue %d full" q
  | Wait_queue_empty q -> Fmt.pf ppf "queue %d empty" q
  | Wait_operand -> Fmt.string ppf "operand in flight"
  | Wait_issue -> Fmt.string ppf "issue pending"

let qclass_name = function Isa.Qint -> "int" | Isa.Qfloat -> "float"

let pp_blocked_core ppf b =
  Fmt.pf ppf "core %d blocked at pc %d: %a [%a]" b.bc_core b.bc_pc
    Isa.pp_instr b.bc_instr pp_wait b.bc_wait

let pp_queue_occupancy ppf q =
  Fmt.pf ppf "q%d %d->%d %s %d/%d" q.qo_id q.qo_spec.Isa.src q.qo_spec.Isa.dst
    (qclass_name q.qo_spec.Isa.cls)
    q.qo_occupancy q.qo_capacity

(** The dynamic wait-for cycle among blocked cores, if one exists: a
    core blocked on an empty queue waits for the queue's source core, a
    core blocked on a full queue waits for its destination core.  The
    result lists each cycle participant with its wait. *)
let wait_for_cycle st =
  let spec_of q =
    List.find_opt (fun o -> o.qo_id = q) st.st_queues
    |> Option.map (fun o -> o.qo_spec)
  in
  let succ b =
    match b.bc_wait with
    | Wait_queue_empty q -> Option.map (fun s -> s.Isa.src) (spec_of q)
    | Wait_queue_full q -> Option.map (fun s -> s.Isa.dst) (spec_of q)
    | Wait_operand | Wait_issue -> None
  in
  let blocked core =
    List.find_opt (fun b -> b.bc_core = core) st.st_blocked
  in
  let rec walk path b =
    if List.exists (fun p -> p.bc_core = b.bc_core) path then
      (* Drop the lead-in: keep the cycle proper. *)
      let rec cut = function
        | p :: rest -> if p.bc_core = b.bc_core then p :: rest else cut rest
        | [] -> []
      in
      Some (cut (List.rev path))
    else
      match succ b with
      | None -> None
      | Some next -> (
        match blocked next with
        | None -> None
        | Some nb -> walk (b :: path) nb)
  in
  List.find_map (fun b -> walk [] b) st.st_blocked

let blockage_text ~blocked ~queues =
  let b = Buffer.create 128 in
  List.iter
    (fun bc -> Buffer.add_string b (Fmt.str "%a; " pp_blocked_core bc))
    blocked;
  if queues <> [] then
    Buffer.add_string b
      (Fmt.str "queues: %a"
         (Fmt.list ~sep:(Fmt.any ", ") pp_queue_occupancy)
         queues);
  Buffer.contents b

(** Human-readable rendering of a {!stuck} payload: the reason, every
    blocked core with its wait, per-queue occupancies, and — for
    deadlocks — the wait-for cycle when one exists. *)
let stuck_message st =
  let reason =
    match st.st_reason with
    | Deadlock { window } ->
      Printf.sprintf "deadlock (no progress for %d cycles)" window
    | Max_cycles { limit } -> Printf.sprintf "exceeded max_cycles=%d" limit
    | Fault m -> m
  in
  let body = blockage_text ~blocked:st.st_blocked ~queues:st.st_queues in
  let cycle_part =
    match st.st_reason with
    | Deadlock _ -> (
      match wait_for_cycle st with
      | Some (first :: _ as cyc) ->
        Fmt.str "; wait-for cycle: %a -> core %d"
          (Fmt.list ~sep:(Fmt.any " -> ") (fun ppf b ->
               Fmt.pf ppf "core %d (%a)" b.bc_core pp_wait b.bc_wait))
          cyc first.bc_core
      | Some [] | None -> "")
    | Max_cycles _ | Fault _ -> ""
  in
  Printf.sprintf "%s at cycle %d: %s%s" reason st.st_cycle body cycle_part

let () =
  Printexc.register_printer (function
    | Stuck st -> Some ("Finepar_machine.Sim.Stuck: " ^ stuck_message st)
    | _ -> None)

(* No core issued for [queue length * transfer latency + slack]
   consecutive cycles => deadlock.  Both engines use the same window, and
   the compiled engine's fast-forward jumps never cross the resulting
   deadline, so Stuck payloads are identical. *)
let deadlock_window t =
  (t.config.Config.queue_len * max 1 t.config.Config.transfer_latency)
  + t.config.Config.mem_latency + 1000

(** One simulated cycle of the reference stepper: SMT round-robin
    arbitration with issue attempts, then classification of the cores
    that never got an attempt.  [step_core] accounts every attempted core
    (issue or stall counter); the second pass classifies the rest, so
    every (core, cycle) lands in exactly one counter.  At issue width
    W >= 2 the winning thread fills its bundle's remaining slots via
    [issue_rest] before the sweep moves on.  [attempted] is
    caller-owned scratch of length [cores], reused across cycles.
    Returns [true] iff any instruction issued. *)
let step_cycle t attempted cy =
  let n = Array.length t.program.Program.cores in
  let width = t.config.Config.issue_width in
  let progressed = ref false in
  Array.fill attempted 0 n false;
  (* Each physical core grants its issue slots to one hardware thread
     per cycle; threads arbitrate round-robin (SMT sharing when several
     logical cores map to one physical core). *)
  Array.iteri
    (fun phys threads ->
      let k = List.length threads in
      if k > 0 then begin
        let arr = Array.of_list threads in
        let issued = ref false in
        for j = 0 to k - 1 do
          let core = arr.((t.rr.(phys) + j) mod k) in
          if
            (not !issued)
            && (not t.halted.(core))
            && t.min_issue.(core) <= cy
          then begin
            attempted.(core) <- true;
            let pc0 = t.pc.(core) in
            if step_core t core cy then begin
              issued := true;
              t.rr.(phys) <- (t.rr.(phys) + j + 1) mod k;
              progressed := true;
              if width > 1 then issue_rest t core cy ~prev_pc:pc0
            end
          end
        done
      end)
    t.threads_of;
  for core = 0 to n - 1 do
    if not attempted.(core) then begin
      let stats = t.stats.(core) in
      if t.halted.(core) then
        stats.idle_after_halt <- stats.idle_after_halt + 1
      else if t.min_issue.(core) > cy then
        stats.branch_wait <- stats.branch_wait + 1
      else stats.smt_wait <- stats.smt_wait + 1
    end
  done;
  !progressed

(** The reference engine: every core, every cycle. *)
let run_cycle t =
  let cy = ref 0 in
  let last_progress = ref 0 in
  let deadlock_window = deadlock_window t in
  let attempted = Array.make (Array.length t.program.Program.cores) false in
  while not (all_halted t) do
    (* Keep [t.cycles] current so fault/deadlock snapshots carry the
       cycle they happened at; it is overwritten with the final count
       when the run completes. *)
    t.cycles <- !cy;
    if !cy >= t.config.Config.max_cycles then
      raise
        (Stuck
           (snapshot t (Max_cycles { limit = t.config.Config.max_cycles })));
    if step_cycle t attempted !cy then last_progress := !cy;
    if !cy - !last_progress > deadlock_window then
      raise (Stuck (snapshot t (Deadlock { window = deadlock_window })));
    incr cy
  done;
  for core = 0 to Array.length t.program.Program.cores - 1 do
    flush_stall_run t core
  done;
  t.cycles <- !cy;
  !cy

(* ------------------------------------------------------------------ *)
(* The compiled engine.

   [specialize] translates each core's program once into a flat array of
   closures, one per pc: operand checks are unrolled over the exact
   source list, destinations/latencies/branch targets/queue endpoints/
   fiber slots/stall reasons are resolved to direct array slots and
   constants, and the per-issue / per-stall bookkeeping is pre-bound.
   The hot path then executes [steps.(pc) cy] — no [Isa.srcs] list
   allocation, no [List.for_all] closure, no inner [finish_simple]/
   [branch_to] closures, no event-variant allocation when tracing is
   off.  Every state mutation happens in the same order as [step_core],
   so the engine inherits the cycle-exactness contract.

   The driver ([run_compiled]) never simulates a cycle in which no core
   can issue more than once: after a sweep in which nothing issued it
   asks every blocked core for its wake time — the earliest cycle at
   which that core's issue conditions can change on their own — and
   jumps straight to the minimum over all cores (clamped by the
   deadlock deadline and the cycle budget), crediting the skipped
   cycles to the same per-core and per-fiber counters the stepper
   would have bumped.  A blocked core's issue conditions are:

   - [min_issue], the earliest cycle an issue may be attempted (it
     carries taken-branch penalties);
   - the operand-ready time, the max of the scoreboard entries of the
     current instruction's sources;
   - a queue gate: none; a dequeue whose head value becomes visible at
     a known cycle ([enqueue time + transfer latency]), the one wait
     that expires without any other core acting; or a wait on another
     core's issue (enqueue into a full queue, dequeue from an empty
     one), which has no self-wake time ([max_int]).

   The theorem that makes bulk crediting sound: in a cycle where no
   instruction issues, every eligible hardware thread is attempted by
   the round-robin arbiter (the shared issue slot is never consumed), so
   no [smt_wait] accrues, the round-robin cursors do not move, and queue
   contents, scoreboards and program counters are all frozen.  A blocked
   core's window up to the minimum wake therefore splits into at most
   three contiguous segments — branch-penalty wait while
   [cycle < min_issue], operand stall while [cycle] is before the
   operand-ready time, and the queue gate's stall class for the rest —
   which is exactly what the stepper would have recorded cycle by
   cycle.  [sp_wakes] computes the wake and [sp_credits] the segments,
   per pc, with everything resolved at specialize time.

   The closures capture the arrays of ONE [t]; a [specialized] value is
   only valid for the instance it was built from. *)

type specialized = {
  sp_for : t;  (** the instance the closures capture *)
  sp_steps : (int -> bool) array array;
      (** per logical core, per pc: attempt to issue at cycle; same
          result and side effects as [step_core].  The driver does the
          pc bounds check (and the off-the-end fault) itself, so the
          hot path is a single indirect call per attempt. *)
  sp_wakes : (unit -> int) array array;
      (** per logical core, per pc: the wake cycle of a core blocked on
          that instruction, [max_int] when only another core's issue can
          unblock it *)
  sp_cans : (int -> bool) array array;
      (** per logical core, per pc: [issuable] with everything resolved —
          the side-effect-free gate for a bundle's extra slots.  Not
          derivable from [sp_wakes]: a wake folds in [min_issue], which
          the slot-1 issue just pushed to [cy + 1]. *)
  sp_credits : (int -> int -> unit) array array;
      (** per logical core, per pc: [credit from until] credits the
          quiescent window [\[from, until)] of a non-halted core blocked
          on that instruction, split into its branch-wait, operand-stall
          and queue-stall segments; requires [until] <= its wake *)
  sp_threads : int array array;  (** physical core -> logical cores *)
  sp_identity : bool;
      (** identity core map: issue sweep order is core order and the
          round-robin cursors never move, so the driver can skip SMT
          arbitration entirely *)
  sp_live : int ref;
      (** non-halted core count, maintained by the Halt closures;
          re-initialized by [run_compiled] *)
}

let specialize t =
  let n = Array.length t.program.Program.cores in
  let cfg = t.config in
  let tracing = t.tracing in
  let live = ref 0 in
  let compile_core core =
    let prog = t.program.Program.cores.(core) in
    let code = prog.Program.code in
    let regs = t.regs.(core) and ready = t.reg_ready.(core) in
    let stats = t.stats.(core) in
    (* Every step closure ends by repeating [finish_simple]'s issue
       bookkeeping inline — pc, min_issue, instrs, episode flush, fiber
       counter, trace — because a shared closure would cost an indirect
       call on every issued instruction.  The mutations are textually
       duplicated across the arms but their order is the stepper's. *)
    let compile_at pc instr =
      let slot = fiber_slot t core pc in
      (* [note_stall] with the reason, class index and counter pre-bound.
         The stall path keeps one out-of-line closure per gate: it
         touches an episode histogram anyway, so a call there is noise,
         unlike the issue path above. *)
      let stall reason =
        let cls = Telemetry.Stall.class_index reason in
        fun cy ->
          (match reason with
          | Telemetry.Stall.Operand ->
            stats.stall_operand <- stats.stall_operand + 1
          | Telemetry.Stall.Queue_full _ ->
            stats.stall_queue_full <- stats.stall_queue_full + 1
          | Telemetry.Stall.Queue_empty _ ->
            stats.stall_queue_empty <- stats.stall_queue_empty + 1);
          if t.stall_run_class.(core) = cls then
            t.stall_run_len.(core) <- t.stall_run_len.(core) + 1
          else begin
            flush_stall_run t core;
            t.stall_run_class.(core) <- cls;
            t.stall_run_len.(core) <- 1
          end;
          t.fiber_stall.(slot) <- t.fiber_stall.(slot) + 1;
          if tracing then
            Telemetry.Ring.push t.trace
              (Ev_stall { core; cycle = cy; pc; reason });
          false
      in
      match instr with
      | Isa.Li (d, v) ->
        fun cy ->
          regs.(d) <- v;
          ready.(d) <- cy + 1;
          t.pc.(core) <- pc + 1;
          t.min_issue.(core) <- cy + 1;
          stats.instrs <- stats.instrs + 1;
          if t.stall_run_class.(core) >= 0 then flush_stall_run t core;
          t.fiber_issue.(slot) <- t.fiber_issue.(slot) + 1;
          if tracing then
            Telemetry.Ring.push t.trace (Ev_issue { core; cycle = cy; pc; instr });
          true
      | Isa.Mov (d, s) ->
        let op_stall = stall Telemetry.Stall.Operand in
        fun cy ->
          if ready.(s) <= cy then begin
            regs.(d) <- regs.(s);
            ready.(d) <- cy + 1;
            t.pc.(core) <- pc + 1;
            t.min_issue.(core) <- cy + 1;
            stats.instrs <- stats.instrs + 1;
            if t.stall_run_class.(core) >= 0 then flush_stall_run t core;
            t.fiber_issue.(slot) <- t.fiber_issue.(slot) + 1;
            if tracing then
              Telemetry.Ring.push t.trace
                (Ev_issue { core; cycle = cy; pc; instr });
            true
          end
          else op_stall cy
      | Isa.Un (op, d, s) ->
        let lat_i = Op_cost.unop_latency op Types.I64 in
        let lat_f = Op_cost.unop_latency op Types.F64 in
        let op_stall = stall Telemetry.Stall.Operand in
        fun cy ->
          if ready.(s) <= cy then begin
            let v = regs.(s) in
            regs.(d) <- Types.apply_unop op v;
            ready.(d) <-
              (cy + match v with Types.VInt _ -> lat_i | Types.VFloat _ -> lat_f);
            t.pc.(core) <- pc + 1;
            t.min_issue.(core) <- cy + 1;
            stats.instrs <- stats.instrs + 1;
            if t.stall_run_class.(core) >= 0 then flush_stall_run t core;
            t.fiber_issue.(slot) <- t.fiber_issue.(slot) + 1;
            if tracing then
              Telemetry.Ring.push t.trace
                (Ev_issue { core; cycle = cy; pc; instr });
            true
          end
          else op_stall cy
      | Isa.Bin (op, d, a, b) ->
        let lat_i = Op_cost.binop_latency op Types.I64 in
        let lat_f = Op_cost.binop_latency op Types.F64 in
        let op_stall = stall Telemetry.Stall.Operand in
        fun cy ->
          if ready.(a) <= cy && ready.(b) <= cy then begin
            let va = regs.(a) in
            regs.(d) <- Types.apply_binop op va regs.(b);
            ready.(d) <-
              (cy
              + match va with Types.VInt _ -> lat_i | Types.VFloat _ -> lat_f);
            t.pc.(core) <- pc + 1;
            t.min_issue.(core) <- cy + 1;
            stats.instrs <- stats.instrs + 1;
            if t.stall_run_class.(core) >= 0 then flush_stall_run t core;
            t.fiber_issue.(slot) <- t.fiber_issue.(slot) + 1;
            if tracing then
              Telemetry.Ring.push t.trace
                (Ev_issue { core; cycle = cy; pc; instr });
            true
          end
          else op_stall cy
      | Isa.Sel (d, c, tr, fr) ->
        let lat = Op_cost.select_latency in
        let op_stall = stall Telemetry.Stall.Operand in
        fun cy ->
          if ready.(c) <= cy && ready.(tr) <= cy && ready.(fr) <= cy then begin
            regs.(d) <-
              (if Types.value_is_true regs.(c) then regs.(tr) else regs.(fr));
            ready.(d) <- cy + lat;
            t.pc.(core) <- pc + 1;
            t.min_issue.(core) <- cy + 1;
            stats.instrs <- stats.instrs + 1;
            if t.stall_run_class.(core) >= 0 then flush_stall_run t core;
            t.fiber_issue.(slot) <- t.fiber_issue.(slot) + 1;
            if tracing then
              Telemetry.Ring.push t.trace
                (Ev_issue { core; cycle = cy; pc; instr });
            true
          end
          else op_stall cy
      | Isa.Load (d, arr, ir) ->
        let mem = t.memory.(arr) in
        let op_stall = stall Telemetry.Stall.Operand in
        fun cy ->
          if ready.(ir) <= cy then begin
            let idx = int_of_reg t core ir in
            check_idx t arr idx;
            let latency = load_latency t core arr idx in
            regs.(d) <- mem.(idx);
            ready.(d) <- cy + latency;
            t.pc.(core) <- pc + 1;
            t.min_issue.(core) <- cy + 1;
            stats.instrs <- stats.instrs + 1;
            if t.stall_run_class.(core) >= 0 then flush_stall_run t core;
            t.fiber_issue.(slot) <- t.fiber_issue.(slot) + 1;
            if tracing then
              Telemetry.Ring.push t.trace
                (Ev_issue { core; cycle = cy; pc; instr });
            true
          end
          else op_stall cy
      | Isa.Store (arr, ir, sr) ->
        let mem = t.memory.(arr) in
        let op_stall = stall Telemetry.Stall.Operand in
        fun cy ->
          if ready.(ir) <= cy && ready.(sr) <= cy then begin
            let idx = int_of_reg t core ir in
            check_idx t arr idx;
            mem.(idx) <- regs.(sr);
            store_effects t core arr idx;
            t.pc.(core) <- pc + 1;
            t.min_issue.(core) <- cy + 1;
            stats.instrs <- stats.instrs + 1;
            if t.stall_run_class.(core) >= 0 then flush_stall_run t core;
            t.fiber_issue.(slot) <- t.fiber_issue.(slot) + 1;
            if tracing then
              Telemetry.Ring.push t.trace
                (Ev_issue { core; cycle = cy; pc; instr });
            true
          end
          else op_stall cy
      | Isa.Enq (q, sr) ->
        let qs = t.queues.(q) in
        let cap = cfg.Config.queue_len in
        let lat = cfg.Config.transfer_latency in
        let op_stall = stall Telemetry.Stall.Operand in
        let full = stall (Telemetry.Stall.Queue_full q) in
        fun cy ->
          if ready.(sr) <= cy then
            if Queue.length qs.items >= cap then full cy
            else begin
              Queue.add (regs.(sr), cy + lat) qs.items;
              qs.transfers <- qs.transfers + 1;
              qs.max_occupancy <- max qs.max_occupancy (Queue.length qs.items);
              Telemetry.Histogram.observe qs.occupancy (Queue.length qs.items);
              t.pc.(core) <- pc + 1;
              t.min_issue.(core) <- cy + 1;
              stats.instrs <- stats.instrs + 1;
              if t.stall_run_class.(core) >= 0 then flush_stall_run t core;
              t.fiber_issue.(slot) <- t.fiber_issue.(slot) + 1;
              if tracing then
                Telemetry.Ring.push t.trace
                  (Ev_issue { core; cycle = cy; pc; instr });
              true
            end
          else op_stall cy
      | Isa.Deq (d, q) ->
        let qs = t.queues.(q) in
        let lat = cfg.Config.deq_latency in
        let empty = stall (Telemetry.Stall.Queue_empty q) in
        fun cy ->
          if Queue.is_empty qs.items then empty cy
          else
            let v, visible_at = Queue.peek qs.items in
            if visible_at <= cy then begin
              ignore (Queue.pop qs.items);
              regs.(d) <- v;
              ready.(d) <- cy + lat;
              t.pc.(core) <- pc + 1;
              t.min_issue.(core) <- cy + 1;
              stats.instrs <- stats.instrs + 1;
              if t.stall_run_class.(core) >= 0 then flush_stall_run t core;
              t.fiber_issue.(slot) <- t.fiber_issue.(slot) + 1;
              if tracing then
                Telemetry.Ring.push t.trace
                  (Ev_issue { core; cycle = cy; pc; instr });
              true
            end
            else empty cy
      | Isa.Bz (r, l) ->
        let target = prog.Program.label_pos.(l) in
        let pen = cfg.Config.branch_taken_penalty in
        let op_stall = stall Telemetry.Stall.Operand in
        fun cy ->
          if ready.(r) <= cy then begin
            let taken = not (Types.value_is_true regs.(r)) in
            t.pc.(core) <- (if taken then target else pc + 1);
            t.min_issue.(core) <- (cy + 1 + if taken then pen else 0);
            stats.instrs <- stats.instrs + 1;
            if t.stall_run_class.(core) >= 0 then flush_stall_run t core;
            t.fiber_issue.(slot) <- t.fiber_issue.(slot) + 1;
            if tracing then
              Telemetry.Ring.push t.trace
                (Ev_issue { core; cycle = cy; pc; instr });
            true
          end
          else op_stall cy
      | Isa.Bnz (r, l) ->
        let target = prog.Program.label_pos.(l) in
        let pen = cfg.Config.branch_taken_penalty in
        let op_stall = stall Telemetry.Stall.Operand in
        fun cy ->
          if ready.(r) <= cy then begin
            let taken = Types.value_is_true regs.(r) in
            t.pc.(core) <- (if taken then target else pc + 1);
            t.min_issue.(core) <- (cy + 1 + if taken then pen else 0);
            stats.instrs <- stats.instrs + 1;
            if t.stall_run_class.(core) >= 0 then flush_stall_run t core;
            t.fiber_issue.(slot) <- t.fiber_issue.(slot) + 1;
            if tracing then
              Telemetry.Ring.push t.trace
                (Ev_issue { core; cycle = cy; pc; instr });
            true
          end
          else op_stall cy
      | Isa.Jmp l ->
        let target = prog.Program.label_pos.(l) in
        let pen = cfg.Config.branch_taken_penalty in
        fun cy ->
          t.pc.(core) <- target;
          t.min_issue.(core) <- cy + 1 + pen;
          stats.instrs <- stats.instrs + 1;
          if t.stall_run_class.(core) >= 0 then flush_stall_run t core;
          t.fiber_issue.(slot) <- t.fiber_issue.(slot) + 1;
          if tracing then
            Telemetry.Ring.push t.trace (Ev_issue { core; cycle = cy; pc; instr });
          true
      | Isa.Halt ->
        fun cy ->
          t.halted.(core) <- true;
          decr live;
          stats.finished_at <- cy;
          stats.instrs <- stats.instrs + 1;
          if t.stall_run_class.(core) >= 0 then flush_stall_run t core;
          t.fiber_issue.(slot) <- t.fiber_issue.(slot) + 1;
          if tracing then
            Telemetry.Ring.push t.trace (Ev_issue { core; cycle = cy; pc; instr });
          true
    in
    (* The fast-forward side of the specialization: per pc, the wake time
       and the window crediting of the section header, with the operand
       max, queue gate, stall reason, class index and fiber slot all
       baked in (no [Isa.srcs] list on the quiescent path).  [operands_at]
       is the cycle every source operand is ready, unrolled for the
       common source counts. *)
    let operands_at_of instr =
      match Isa.srcs instr with
      | [] -> fun () -> 0
      | [ a ] -> fun () -> ready.(a)
      | [ a; b ] ->
        fun () ->
          let x = ready.(a) and y = ready.(b) in
          if x > y then x else y
      | [ a; b; c ] ->
        fun () ->
          let x = ready.(a) and y = ready.(b) and z = ready.(c) in
          max x (max y z)
      | srcs -> fun () -> List.fold_left (fun acc r -> max acc ready.(r)) 0 srcs
    in
    let wake_at _pc instr =
      let operands_at = operands_at_of instr in
      let base () =
        let m = t.min_issue.(core) and o = operands_at () in
        if m > o then m else o
      in
      match instr with
      | Isa.Enq (q, _) ->
        let qs = t.queues.(q) in
        let cap = cfg.Config.queue_len in
        fun () -> if Queue.length qs.items >= cap then max_int else base ()
      | Isa.Deq (_, q) ->
        let qs = t.queues.(q) in
        fun () ->
          if Queue.is_empty qs.items then max_int
          else
            let _, visible_at = Queue.peek qs.items in
            let b = base () in
            if b > visible_at then b else visible_at
      | _ -> base
    in
    (* [issuable] specialized per pc: operand readiness unrolled over the
       exact source list plus the queue gate, no side effects.  Must
       mirror the step closures' own issue conditions exactly — a [true]
       here guarantees the step closure issues (records no stall). *)
    let can_at _pc instr =
      let operands_ready =
        match Isa.srcs instr with
        | [] -> fun _cy -> true
        | [ a ] -> fun cy -> ready.(a) <= cy
        | [ a; b ] -> fun cy -> ready.(a) <= cy && ready.(b) <= cy
        | [ a; b; c ] ->
          fun cy -> ready.(a) <= cy && ready.(b) <= cy && ready.(c) <= cy
        | srcs -> fun cy -> List.for_all (fun r -> ready.(r) <= cy) srcs
      in
      match instr with
      | Isa.Enq (q, _) ->
        let qs = t.queues.(q) in
        let cap = cfg.Config.queue_len in
        fun cy -> operands_ready cy && Queue.length qs.items < cap
      | Isa.Deq (_, q) ->
        let qs = t.queues.(q) in
        fun cy ->
          (match Queue.peek_opt qs.items with
          | Some (_, visible_at) -> visible_at <= cy
          | None -> false)
      | _ -> operands_ready
    in
    let credit_at pc instr =
      let slot = fiber_slot t core pc in
      let operands_at = operands_at_of instr in
      (* [count] consecutive stalls on [reason] starting at cycle [first]:
         exactly [note_stall] applied [count] times (counter, stall
         episode, fiber attribution and, when tracing, one [Ev_stall] per
         cycle). *)
      let segment reason =
        let cls = Telemetry.Stall.class_index reason in
        fun count first ->
          (match reason with
          | Telemetry.Stall.Operand ->
            stats.stall_operand <- stats.stall_operand + count
          | Telemetry.Stall.Queue_full _ ->
            stats.stall_queue_full <- stats.stall_queue_full + count
          | Telemetry.Stall.Queue_empty _ ->
            stats.stall_queue_empty <- stats.stall_queue_empty + count);
          if t.stall_run_class.(core) = cls then
            t.stall_run_len.(core) <- t.stall_run_len.(core) + count
          else begin
            flush_stall_run t core;
            t.stall_run_class.(core) <- cls;
            t.stall_run_len.(core) <- count
          end;
          t.fiber_stall.(slot) <- t.fiber_stall.(slot) + count;
          if tracing then
            for i = 0 to count - 1 do
              Telemetry.Ring.push t.trace
                (Ev_stall { core; cycle = first + i; pc; reason })
            done
      in
      let operand_seg = segment Telemetry.Stall.Operand in
      (* Only queue gates leave a third segment. *)
      let queue_seg =
        match instr with
        | Isa.Enq (q, _) -> segment (Telemetry.Stall.Queue_full q)
        | Isa.Deq (_, q) -> segment (Telemetry.Stall.Queue_empty q)
        | _ -> fun _ _ -> assert false
      in
      fun from until ->
        let clamp x = if x < from then from else if x > until then until else x in
        let m = clamp t.min_issue.(core) in
        let r =
          let o = clamp (operands_at ()) in
          if o < m then m else o
        in
        stats.branch_wait <- stats.branch_wait + (m - from);
        if r > m then operand_seg (r - m) m;
        if until > r then queue_seg (until - r) r
    in
    (Array.mapi compile_at code, Array.mapi wake_at code,
     Array.mapi can_at code, Array.mapi credit_at code)
  in
  let compiled = Array.init n compile_core in
  {
    sp_for = t;
    sp_steps = Array.map (fun (s, _, _, _) -> s) compiled;
    sp_wakes = Array.map (fun (_, w, _, _) -> w) compiled;
    sp_cans = Array.map (fun (_, _, c, _) -> c) compiled;
    sp_credits = Array.map (fun (_, _, _, c) -> c) compiled;
    sp_threads = Array.map Array.of_list t.threads_of;
    sp_identity =
      (let id = ref (Array.length t.core_map = n) in
       Array.iteri (fun i p -> if p <> i then id := false) t.core_map;
       !id);
    sp_live = live;
  }

(* [issue_rest] over the specialized closures: the same continuation
   rule, with [sp_cans] standing in for [issuable]. *)
let issue_rest_compiled t spec core cy ~prev_pc =
  let width = t.config.Config.issue_width in
  let stats = t.stats.(core) in
  let steps = spec.sp_steps.(core) in
  let cans = spec.sp_cans.(core) in
  let len = Array.length steps in
  let prev = ref prev_pc in
  let slot = ref 1 in
  let continue_ = ref true in
  while !continue_ && !slot < width do
    let pcn = t.pc.(core) in
    if
      (not t.halted.(core))
      && pcn = !prev + 1
      && t.min_issue.(core) = cy + 1
      && pcn < len
      && cans.(pcn) cy
    then
      if steps.(pcn) cy then begin
        stats.dual_issued <- stats.dual_issued + 1;
        prev := pcn;
        incr slot
      end
      else continue_ := false
    else continue_ := false
  done

(* One cycle under the compiled engine: the same two phases as
   [step_cycle] (round-robin issue sweep, then classification of the
   cores that never got an attempt) over the pre-compiled steps.  The
   classification stays a separate pass even on the identity fast path
   so a fault raised mid-sweep leaves the very counters the reference
   stepper would.  A pc off the end of the code faults here with the
   stepper's message (the driver gives such a core the wake time
   [min_issue], so the fast-forward path always jumps it back into this
   sweep). *)
let step_cycle_compiled t spec attempted cy =
  let n = Array.length spec.sp_steps in
  let width = t.config.Config.issue_width in
  let progressed = ref false in
  (* Both sweeps dispatch the step closures inline (no shared [attempt]
     helper): a local function would be allocated afresh on every swept
     cycle, and the SMT sweep runs hot enough that even that shows up.
     The wrap-around round-robin index replaces the modulo of
     [step_cycle] — same orbit, no integer division. *)
  if spec.sp_identity then
    for core = 0 to n - 1 do
      if (not t.halted.(core)) && t.min_issue.(core) <= cy then begin
        attempted.(core) <- true;
        let steps = spec.sp_steps.(core) in
        let pc = t.pc.(core) in
        if pc >= Array.length steps then
          fault t "core %d ran off the end of its code" core
        else if steps.(pc) cy then begin
          progressed := true;
          if width > 1 then issue_rest_compiled t spec core cy ~prev_pc:pc
        end
      end
    done
  else
    for phys = 0 to Array.length spec.sp_threads - 1 do
      let threads = spec.sp_threads.(phys) in
      let k = Array.length threads in
      if k > 0 then begin
        let idx = ref t.rr.(phys) in
        let j = ref 0 in
        let issued = ref false in
        while (not !issued) && !j < k do
          let core = threads.(!idx) in
          if (not t.halted.(core)) && t.min_issue.(core) <= cy then begin
            attempted.(core) <- true;
            let steps = spec.sp_steps.(core) in
            let pc = t.pc.(core) in
            if pc >= Array.length steps then
              fault t "core %d ran off the end of its code" core
            else if steps.(pc) cy then begin
              issued := true;
              t.rr.(phys) <- (if !idx + 1 = k then 0 else !idx + 1);
              progressed := true;
              if width > 1 then issue_rest_compiled t spec core cy ~prev_pc:pc
            end
          end;
          incr j;
          incr idx;
          if !idx = k then idx := 0
        done
      end
    done;
  for core = 0 to n - 1 do
    if attempted.(core) then attempted.(core) <- false
    else begin
      let stats = t.stats.(core) in
      if t.halted.(core) then stats.idle_after_halt <- stats.idle_after_halt + 1
      else if t.min_issue.(core) > cy then
        stats.branch_wait <- stats.branch_wait + 1
      else stats.smt_wait <- stats.smt_wait + 1
    end
  done;
  !progressed

(** The compiled engine's driver: cycles where an instruction issues are
    stepped one by one (issue order, SMT arbitration and cache state must
    follow the reference exactly); a cycle where nothing issues proves
    the machine quiescent, so the driver jumps to the earliest wake,
    clamped by the deadlock deadline and the cycle budget so [Stuck]
    fires at the same cycle with the same payload as the stepper.  A core
    whose pc ran off its code has no operand or queue gate: its wake is
    [min_issue] and any credited window is all branch wait (the next
    sweep then raises the same fault the stepper would). *)
let run_compiled t spec =
  if spec.sp_for != t then
    invalid_arg "Sim.run: specialized value belongs to a different sim";
  let n = Array.length t.program.Program.cores in
  let max_cycles = t.config.Config.max_cycles in
  let cy = ref 0 in
  let last_progress = ref 0 in
  let deadlock_window = deadlock_window t in
  let attempted = Array.make n false in
  let live = spec.sp_live in
  live := 0;
  Array.iter (fun h -> if not h then incr live) t.halted;
  while !live > 0 do
    t.cycles <- !cy;
    if !cy >= max_cycles then
      raise (Stuck (snapshot t (Max_cycles { limit = max_cycles })));
    if step_cycle_compiled t spec attempted !cy then begin
      last_progress := !cy;
      incr cy
    end
    else begin
      if !cy - !last_progress > deadlock_window then
        raise (Stuck (snapshot t (Deadlock { window = deadlock_window })));
      let wake = ref max_int in
      for core = 0 to n - 1 do
        if not t.halted.(core) then begin
          let wakes = spec.sp_wakes.(core) in
          let pc = t.pc.(core) in
          let w =
            if pc >= Array.length wakes then t.min_issue.(core)
            else wakes.(pc) ()
          in
          if w < !wake then wake := w
        end
      done;
      (* The machine is quiescent: nothing can change before the earliest
         wake, the deadlock deadline, or the cycle budget — whichever
         comes first ([max_int] = no core can wake on its own).  Every
         wake is > [cy] (an issuable core would have issued or faulted in
         the sweep above), so the jump always moves forward. *)
      let deadline = !last_progress + deadlock_window + 1 in
      let target = min (min !wake deadline) max_cycles in
      assert (target > !cy);
      let from = !cy + 1 in
      if target > from then
        for core = 0 to n - 1 do
          if t.halted.(core) then
            t.stats.(core).idle_after_halt <-
              t.stats.(core).idle_after_halt + (target - from)
          else begin
            let credits = spec.sp_credits.(core) in
            let pc = t.pc.(core) in
            if pc >= Array.length credits then
              t.stats.(core).branch_wait <-
                t.stats.(core).branch_wait + (target - from)
            else credits.(pc) from target
          end
        done;
      cy := target
    end
  done;
  for core = 0 to n - 1 do
    flush_stall_run t core
  done;
  t.cycles <- !cy;
  !cy

(** Run the program to completion; returns the cycle count of the last
    core to halt.  Raises {!Stuck} on deadlock (no core can make progress
    for [queue length * transfer latency + slack] consecutive cycles) or
    when [max_cycles] is reached (inclusive bound: a run executes at most
    [max_cycles] cycles).  Both engines implement identical semantics
    (see {!Engine}); [Engine.Compiled] only runs faster.  [specialized]
    (only meaningful for {!Engine.Compiled}) lets
    the caller time {!specialize} separately; it must come from
    [specialize] on this same [t]. *)
let run ?(engine = Engine.default) ?specialized t =
  match engine with
  | Engine.Cycle -> run_cycle t
  | Engine.Compiled ->
    let spec =
      match specialized with Some s -> s | None -> specialize t
    in
    run_compiled t spec

(** Final contents of a named array. *)
let array_contents t name =
  t.memory.(Program.array_id t.program name)

(** Value of a register on a core after the run. *)
let reg_value t core r = t.regs.(core).(r)

(** Per-array (name, loads, L1 misses) counters — the profile feedback
    input (Section III-B). *)
let load_counters t =
  Array.to_list
    (Array.mapi
       (fun i (l : Program.array_layout) ->
         (l.Program.arr_name, t.loads.(i), t.l1_misses.(i)))
       t.program.Program.arrays)

let queue_stats t =
  Array.to_list
    (Array.map
       (fun q -> (q.spec, q.transfers, q.max_occupancy))
       t.queues)

(** Number of distinct (src, dst) core pairs whose queues carried at least
    one value — the Table III "Queues" column. *)
let queues_used t =
  let pairs = Hashtbl.create 16 in
  Array.iter
    (fun q ->
      if q.transfers > 0 then
        Hashtbl.replace pairs (q.spec.Isa.src, q.spec.Isa.dst) ())
    t.queues;
  Hashtbl.length pairs

(** All queues drained — after a complete run this certifies that every
    enqueued value was consumed (the paper's static sender/receiver
    pairing, observed dynamically). *)
let queues_empty t =
  Array.for_all (fun q -> Queue.is_empty q.items) t.queues

(** Traced events, oldest first.  Bounded: when the run outgrew the trace
    ring only the most recent [trace_capacity] events remain — check
    {!dropped_events}. *)
let events t = Telemetry.Ring.to_list t.trace

(** Events overwritten because the trace ring was full. *)
let dropped_events t = Telemetry.Ring.dropped t.trace

(** Per-fiber cycle attribution: (fiber id, issue cycles, stall cycles),
    fiber id [Program.no_fiber] (-1) for runtime glue.  Summed with the
    per-core branch/SMT/idle waits this accounts for every cycle of every
    core. *)
let fiber_counters t =
  Array.to_list
    (Array.mapi
       (fun slot issue -> (slot - 1, issue, t.fiber_stall.(slot)))
       t.fiber_issue)

(** Cycles no issue was attempted, per core beyond the issue/stall
    accounting: taken-branch penalties + SMT arbitration losses +
    post-halt idling. *)
let wait_cycles t =
  Array.fold_left
    (fun acc s -> acc + s.branch_wait + s.smt_wait + s.idle_after_halt)
    0 t.stats
