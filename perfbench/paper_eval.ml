(* paper-eval: the paper's grid at one domain.  18 registry kernels x
   cores {2,4,8} x transfer latency {1,5,20} x speculation {off,on},
   queue mode, on the default engine.  Set-up gives each kernel its
   seeded input arrays and one sequential profiling run (compile +
   simulate + check) whose load counters feed that kernel's parallel
   compiles, as in [Runner.speedup].  Each op compiles one parallel
   configuration, simulates it and checks the outputs bit-exactly
   against the reference evaluator. *)

open Finepar
module Config = Finepar_machine.Config
module Registry = Finepar_kernels.Registry
module Rng = Finepar_fuzz.Rng

let cores = [ 2; 4; 8 ]
let latencies = [ 1; 5; 20 ]
let speculation = [ false; true ]

type kernel = {
  entry : Registry.entry;
  workload : Finepar_ir.Eval.workload;
  profile : Finepar_analysis.Profile.t;
  seq_cycles : int;
  seq_instrs : int;
}

type job = { k : kernel; cores : int; latency : int; spec : bool }

let profile_kernel rng (entry : Registry.entry) =
  let kernel = entry.Registry.kernel in
  let workload =
    Finepar_kernels.Workload.default ~seed:(Rng.int_below rng 1_000_000_000) kernel
  in
  let seq =
    Harness.span "Compiler.compile" (fun () -> Compiler.compile_sequential kernel)
  in
  let r = Harness.span "Runner.run" (fun () -> Runner.run ~check:true ~workload seq) in
  {
    entry;
    workload;
    profile = Finepar_analysis.Profile.of_counters r.Runner.load_counters;
    seq_cycles = r.Runner.cycles;
    seq_instrs = r.Runner.instrs;
  }

let op job =
  let machine = Config.with_transfer_latency job.latency Config.default in
  let config =
    {
      (Compiler.default_config ~cores:job.cores ()) with
      Compiler.machine;
      profile = job.k.profile;
      speculation = job.spec;
    }
  in
  let kernel = job.k.entry.Registry.kernel in
  let workload = job.k.workload in
  let c = Harness.span "Compiler.compile" (fun () -> Compiler.compile config kernel) in
  let r = Harness.span "Runner.run" (fun () -> Runner.run ~check:true ~workload c) in
  Harness.add "machine.seq_instrs" (float_of_int job.k.seq_instrs);
  Harness.add "machine.par_instrs" (float_of_int r.Runner.instrs);
  let stats = Layers.add_compile_stats c.Compiler.stats in
  let sim = Layers.add_report r.Runner.telemetry in
  ( r.Runner.cycles,
    Printf.sprintf "%s c%d l%d s%b | %s | %s" kernel.Finepar_ir.Kernel.name
      job.cores job.latency job.spec stats sim )

let setup ~seed =
  let rng = Rng.create seed in
  let kernels = List.map (profile_kernel rng) Registry.all in
  let jobs =
    List.concat_map
      (fun k ->
        List.concat_map
          (fun cores ->
            List.concat_map
              (fun latency ->
                List.map (fun spec -> { k; cores; latency; spec }) speculation)
              latencies)
          cores)
      kernels
    |> Array.of_list
  in
  let par_cycles = Array.make (Array.length jobs) 0 in
  let ops =
    Array.mapi
      (fun i job () ->
        let cycles, signature = op job in
        par_cycles.(i) <- cycles;
        { Harness.signature; hit = false })
      jobs
  in
  let speedup i = float_of_int jobs.(i).k.seq_cycles /. float_of_int par_cycles.(i) in
  let exact () =
    let all = List.init (Array.length jobs) speedup in
    (* Table III's published speedups are 4 cores, latency 5, no
       speculation. *)
    let errs =
      List.filter_map
        (fun i ->
          let j = jobs.(i) in
          if j.cores = 4 && j.latency = 5 && not j.spec then
            let p = j.k.entry.Registry.paper.Registry.p_speedup4 in
            Some (100. *. Float.abs (speedup i -. p) /. p)
          else None)
        (List.init (Array.length jobs) Fun.id)
    in
    [
      ("speedup_geomean", Harness.geomean all);
      ("paper_mape_pct", List.fold_left ( +. ) 0. errs /. float_of_int (List.length errs));
    ]
  in
  {
    Harness.ops;
    order = Harness.order rng (Array.length ops);
    new_pass = ignore;
    end_pass = ignore;
    exact;
    cleanup = ignore;
  }

let workload =
  { Harness.name = "paper-eval"; domains = 1; warmup_ops = 6; setup }
