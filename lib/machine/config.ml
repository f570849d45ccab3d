(** Machine parameters.

    Defaults model the evaluation platform of Section V: in-order A2-like
    cores, queue length 20 slots, queue transfer latency 5 cycles
    (Figure 13 sweeps it to 20, 50 and 100), enqueue/dequeue occupying one
    pipeline slot. *)

type t = {
  queue_len : int;  (** slots per point-to-point queue *)
  transfer_latency : int;
      (** min cycles before an enqueued value is visible at the consumer *)
  l1_bytes : int;
  l1_line : int;
  l2_bytes : int;
  l1_hit : int;  (** load-to-use latency on an L1 hit *)
  l2_hit : int;  (** latency on an L1 miss that hits L2 *)
  mem_latency : int;  (** latency on an L2 miss *)
  branch_taken_penalty : int;  (** extra cycles after a taken branch *)
  deq_latency : int;  (** cycles from dequeue issue to value availability *)
  max_cycles : int;  (** safety/deadlock bound for one simulation *)
  issue_width : int;
      (** instructions a core may issue per cycle (>= 1); width 2 models
          the dual-issue lightweight cores of Colagrande & Benini *)
}

let default =
  {
    queue_len = 20;
    transfer_latency = 5;
    l1_bytes = 16 * 1024;
    l1_line = 64;
    l2_bytes = 4 * 1024 * 1024;
    l1_hit = 6;
    l2_hit = 40;
    mem_latency = 200;
    branch_taken_penalty = 1;
    deq_latency = 1;
    max_cycles = 200_000_000;
    issue_width = 1;
  }

let with_transfer_latency latency t = { t with transfer_latency = latency }
let with_issue_width width t = { t with issue_width = width }

let check ~cores t =
  let at_least lo (name, v) =
    if v < lo then Some (Printf.sprintf "%s must be >= %d (got %d)" name lo v)
    else None
  in
  let problems =
    List.filter_map (at_least 1)
      [
        ("cores", cores);
        ("queue_len", t.queue_len);
        ("issue_width", t.issue_width);
        ("l1_line", t.l1_line);
      ]
    @ List.filter_map (at_least 0)
        [
          ("transfer_latency", t.transfer_latency);
          ("l1_hit", t.l1_hit);
          ("l2_hit", t.l2_hit);
          ("mem_latency", t.mem_latency);
          ("branch_taken_penalty", t.branch_taken_penalty);
          ("deq_latency", t.deq_latency);
        ]
  in
  if problems = [] then Ok () else Error (String.concat "; " problems)
