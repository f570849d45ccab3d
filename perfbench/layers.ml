(* Per-layer metrics of the traced run.

   Host times come from spans: the benchmark's own spans around the
   public calls it makes (category "bench"), and the spans the program
   already emits — one "compile <kernel>" span per compilation with its
   passes nested under it (the same timer that fills
   [compiled.pass_times]), one "sim:<engine>" span per simulation and,
   for the compiled engine, a nested "specialize" span.  Self times come
   from merging them all in a [Profile_tree].  Counts come from the
   results the benchmark sees ([Harness.add]) and from [Pool.stats] and
   [Cache.counters]. *)

open Finepar
module Tracer = Finepar_telemetry.Tracer
module Profile_tree = Finepar_telemetry.Profile_tree
module Pool = Finepar_exec.Pool

let add = Harness.add

(* Simulated statistics of one simulation, summed over the traced
   window; also the text the determinism check and the digest hash. *)
let add_report (r : Report.t) =
  add "machine.sim_cycles" (float_of_int r.Report.cycles);
  add "machine.sim_instrs" (float_of_int r.Report.instrs);
  let b = Buffer.create 128 in
  Printf.bprintf b "cyc=%d ins=%d" r.Report.cycles r.Report.instrs;
  List.iter
    (fun (c : Report.core_row) ->
      let fields =
        [
          ("stall_operand", c.Report.stall_operand);
          ("stall_queue_empty", c.Report.stall_queue_empty);
          ("stall_queue_full", c.Report.stall_queue_full);
          ("branch_wait", c.Report.branch_wait);
          ("smt_wait", c.Report.smt_wait);
          ("idle_after_halt", c.Report.idle_after_halt);
          ("dual_issued", c.Report.dual_issued);
        ]
      in
      Printf.bprintf b " [%d" c.Report.instrs;
      List.iter
        (fun (name, v) ->
          add ("machine." ^ name) (float_of_int v);
          Printf.bprintf b " %d" v)
        fields;
      Buffer.add_char b ']')
    r.Report.cores;
  Buffer.contents b

(* Static results of one compilation; also its signature text. *)
let add_compile_stats (s : Compiler.stats) =
  add "fiber.initial_fibers" (float_of_int s.Compiler.initial_fibers);
  add "analysis.data_deps" (float_of_int s.Compiler.data_deps);
  add "partition.merge_steps" (float_of_int s.Compiler.merge_steps);
  Format.asprintf "%a steps=%d spec=%d" Compiler.pp_stats s
    s.Compiler.merge_steps s.Compiler.speculated_ifs

(* The pool whose statistics the exec layer reports, if the workload
   uses one.  Its statistics cover every pass of the traced run, the
   untraced ones included. *)
let pool : Pool.t option ref = ref None

(* (metric, pass span name) for the compiler passes. *)
let pass_metrics =
  [
    ("ir.flatten_s", "flatten");
    ("fiber.split_s", "fiber-split");
    ("analysis.deps_s", "deps");
    ("partition.code_graph_s", "code-graph");
    ("partition.merge_s", "merge");
    ("partition.schedule_s", "schedule");
    ("transform.speculate_s", "speculate");
    ("transform.comm_s", "comm");
    ("codegen.lower_s", "lower");
    ("verify.verify_s", "verify");
  ]

let leaf path =
  match String.rindex_opt path '/' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

(* Every per-layer metric as (name, value, unit), in a fixed order.
   [untraced]/[traced] are the two windows' ops per second. *)
let metrics ~spans ~untraced ~traced =
  let total pred =
    List.fold_left
      (fun acc (s : Tracer.span) -> if pred s then acc +. Tracer.duration s else acc)
      0. spans
  in
  let named n = total (fun s -> String.equal s.Tracer.name n) in
  let max_named n =
    List.fold_left
      (fun acc (s : Tracer.span) ->
        if String.equal s.Tracer.name n then Float.max acc (Tracer.duration s)
        else acc)
      0. spans
  in
  let tree = Profile_tree.of_spans spans in
  if not (Profile_tree.well_formed tree) then
    prerr_endline "perfbench: warning: span tree is not well formed";
  let self n =
    List.fold_left
      (fun acc (path, _, _, self) ->
        if String.equal (leaf path) n then acc +. self else acc)
      0. (Profile_tree.hot_list tree)
  in
  let c = Harness.count in
  let ratio a b = if b > 0. then a /. b else 0. in
  let sim_s = total (fun s -> String.equal s.Tracer.cat "sim") in
  let evaluator = named "Search.evaluator" in
  let hits = c "service.cache_hits" and misses = c "service.cache_misses" in
  let stats = Option.map Pool.stats !pool in
  let pool_field f = match stats with Some st -> f st | None -> 0. in
  [
    ("core.compile_s", total (fun s -> String.equal s.Tracer.cat "compile"), "s");
    ("core.run_s", named "Runner.run", "s");
    ("core.check_s", self "Runner.run", "s");
  ]
  @ List.map (fun (m, pass) -> (m, named pass, "s")) pass_metrics
  @ [
      ("fiber.initial_fibers", c "fiber.initial_fibers", "count");
      ("analysis.data_deps", c "analysis.data_deps", "count");
      ("partition.merge_max_ms", 1000. *. max_named "merge", "ms");
      ("partition.merge_steps", c "partition.merge_steps", "count");
      ("verify.rejections", c "verify.rejections", "count");
      ("machine.sim_s", sim_s, "s");
      ("machine.specialize_s", named "specialize", "s");
      ( "machine.sim_mcycles_per_s",
        ratio (c "machine.sim_cycles") sim_s /. 1e6,
        "Mcycles/s" );
      ("machine.sim_cycles", c "machine.sim_cycles", "count");
      ("machine.sim_instrs", c "machine.sim_instrs", "count");
      ( "machine.instr_inflation",
        ratio (c "machine.par_instrs") (c "machine.seq_instrs"),
        "ratio" );
    ]
  @ List.map
      (fun n -> ("machine." ^ n, c ("machine." ^ n), "count"))
      [
        "stall_operand";
        "stall_queue_empty";
        "stall_queue_full";
        "branch_wait";
        "smt_wait";
        "idle_after_halt";
        "dual_issued";
      ]
  @ [
      ("service.encode_s", named "Wire.request_to_string", "s");
      ("service.handle_s", named "Server.handle_frame", "s");
      ("service.decode_s", named "Wire.response_of_string", "s");
      ("service.cache_hits", hits, "count");
      ("service.cache_misses", misses, "count");
      ("service.cache_stores", c "service.cache_stores", "count");
      ("service.hit_ratio", ratio hits (hits +. misses), "ratio");
      ("service.request_bytes", c "service.request_bytes", "bytes");
      ("service.response_bytes", c "service.response_bytes", "bytes");
      ("tune.batch_s", evaluator, "s");
      ("tune.batches", c "tune.batches", "count");
      ("tune.configs_evaluated", c "tune.configs_evaluated", "count");
      ("tune.search_self_s", named "Search.run" -. evaluator, "s");
      ("exec.pool_busy_s", pool_field (fun s -> s.Pool.busy_seconds), "s");
      ("exec.pool_idle_s", pool_field (fun s -> s.Pool.idle_seconds), "s");
      ("exec.pool_imbalance", pool_field (fun s -> s.Pool.imbalance), "ratio");
      ( "exec.pool_steals",
        pool_field (fun s -> float_of_int s.Pool.steals),
        "count" );
      ("trace.untraced_ops_per_s", untraced, "1/s");
      ("trace.traced_ops_per_s", traced, "1/s");
      ("trace.overhead_pct", 100. *. ratio (untraced -. traced) untraced, "%");
    ]
