(* autotune: [Search.run] with the in-process [Search.direct] evaluator
   on a pool of min(2, nproc) domains, on the default engine.  One op
   searches one target; a pass visits every target of
   [registry_targets @ corpus_targets] at 2 and at 4 cores, in seeded
   order.  Search neighbours include comm-mode and issue-width swaps, so
   the evaluated configurations mix queue and shared-cache simulations. *)

module Pool = Finepar_exec.Pool
module Search = Finepar_tune.Search
module Rng = Finepar_fuzz.Rng

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Each target is searched for 2 and for 4 cores: 102 ops a pass, enough
   samples for the 90th latency percentile. *)
let params =
  List.map
    (fun cores -> { Search.default_params with Search.cores; generations = 1; budget = 10 })
    [ 2; 4 ]

let setup ~seed =
  let rng = Rng.create seed in
  let pool = Pool.create ~domains:(min 2 (Domain.recommended_domain_count ())) () in
  Layers.pool := Some pool;
  let direct = Search.direct ~pool ~engine:Finepar_machine.Engine.default () in
  (* Candidate errors of the current op: the search keeps going past
     them, the benchmark counts the op as failed. *)
  let errors = ref [] in
  let evaluator jobs =
    Harness.add "tune.batches" 1.;
    Harness.add "tune.configs_evaluated" (float_of_int (List.length jobs));
    let measures = Harness.span "Search.evaluator" (fun () -> direct jobs) in
    List.iter
      (function
        | Ok (cycles, _) -> Harness.add "machine.sim_cycles" (float_of_int cycles)
        | Error e ->
          if contains e "Verify.Rejected" then Harness.add "verify.rejections" 1.;
          errors := e :: !errors)
      measures;
    measures
  in
  (* The seed draws each target's input arrays and the visiting order. *)
  let targets =
    Search.registry_targets () @ Search.corpus_targets ()
    |> List.map (fun (t : Search.target) ->
           let seed = Rng.int_below rng 1_000_000_000 in
           let t_workload =
             match t.Search.t_workload with
             | Finepar_service.Wire.Explicit _ ->
               Finepar_service.Wire.Explicit
                 (Finepar_kernels.Workload.default ~seed t.Search.t_kernel)
             | Finepar_service.Wire.Seeded _ -> Finepar_service.Wire.Seeded seed
           in
           { t with Search.t_workload })
  in
  let jobs =
    Array.of_list (List.concat_map (fun p -> List.map (fun t -> (p, t)) targets) params)
  in
  let speedups = Array.make (Array.length jobs) nan in
  let op i (params, target) () =
    errors := [];
    let rows = Harness.span "Search.run" (fun () -> Search.run params evaluator [ target ]) in
    if !errors <> [] then failwith ("candidate failed: " ^ List.hd !errors);
    List.iter
      (fun (r : Search.row) ->
        match (r.Search.r_seq, r.Search.r_best) with
        | Ok seq, Some b -> speedups.(i) <- float_of_int seq /. float_of_int b.Search.b_cycles
        | Error e, _ -> failwith ("sequential reference failed: " ^ e)
        | Ok _, None -> failwith "every candidate failed")
      rows;
    { Harness.signature = Format.asprintf "%a" Search.pp_table rows; hit = false }
  in
  {
    Harness.ops = Array.mapi op jobs;
    order = Harness.order rng (Array.length jobs);
    new_pass = ignore;
    end_pass = ignore;
    exact = (fun () -> [ ("speedup_geomean", Harness.geomean (Array.to_list speedups)) ]);
    cleanup = ignore;
  }

let workload =
  {
    Harness.name = "autotune";
    domains = min 2 (Domain.recommended_domain_count ());
    warmup_ops = 4;
    setup;
  }
