(* Generational beam search over the configuration space.  See the .mli
   for the lockstep-batch structure and the determinism contract. *)

module Compiler = Finepar.Compiler
module Runner = Finepar.Runner
module Config = Finepar_machine.Config
module Wire = Finepar_service.Wire
module Gen = Finepar_fuzz.Gen
module Pool = Finepar_exec.Pool
module Kernel = Finepar_ir.Kernel
module Registry = Finepar_kernels.Registry
module J = Finepar_telemetry.Json

type target = {
  t_name : string;
  t_kernel : Kernel.t;
  t_workload : Wire.workload_spec;
  t_placement : Gen.placement;
  t_paper_speedup4 : float option;
}

let registry_targets () =
  List.map
    (fun (e : Registry.entry) ->
      {
        t_name = e.Registry.kernel.Kernel.name;
        t_kernel = e.Registry.kernel;
        t_workload = Wire.Explicit e.Registry.workload;
        t_placement = Gen.Identity;
        t_paper_speedup4 = Some e.Registry.paper.Registry.p_speedup4;
      })
    Registry.all

(* The excluded loops have no bespoke workloads; a fixed seed keeps
   every search run (and its cache keys) identical. *)
let corpus_seed = 1

let corpus_targets () =
  List.map
    (fun (k : Kernel.t) ->
      {
        t_name = k.Kernel.name;
        t_kernel = k;
        t_workload = Wire.Seeded corpus_seed;
        t_placement = Gen.Identity;
        t_paper_speedup4 = None;
      })
    Finepar_kernels.Corpus.excluded

let fuzz_targets ~dir =
  List.map
    (fun path ->
      let entry = Finepar_fuzz.Corpus.load_file path in
      let case = entry.Finepar_fuzz.Corpus.case in
      {
        t_name =
          "fuzz:" ^ Filename.remove_extension (Filename.basename path);
        t_kernel = case.Gen.kernel;
        t_workload = Wire.Seeded case.Gen.workload_seed;
        t_placement = case.Gen.placement;
        t_paper_speedup4 = None;
      })
    (Finepar_fuzz.Corpus.files dir)

type params = {
  cores : int;
  machine : Config.t;
  beam : int;
  generations : int;
  budget : int;
}

let default_params =
  { cores = 4; machine = Config.default; beam = 2; generations = 3; budget = 40 }

type measure = (int * (string * int * int) list, string) result
type evaluator = Wire.job list -> measure list

(* The in-process evaluator runs the server's own job evaluation, and
   renders failures as the server does, so measures and error strings
   byte-match the service path. *)
let eval_job ~engine (job : Wire.job) : measure =
  match Finepar_service.Server.run_job ~engine job with
  | r -> Ok (r.Runner.cycles, r.Runner.load_counters)
  | exception e -> Error (Printexc.to_string e)

let direct ?pool ~engine () : evaluator =
 fun jobs -> Pool.map_opt pool ~f:(eval_job ~engine) jobs

type best = { b_desc : string; b_config : Compiler.config; b_cycles : int }

type row = {
  r_target : target;
  r_seq : (int, string) result;
  r_heuristic : (int, string) result;
  r_best : best option;
  r_evaluated : int;
  r_generations : int;
}

(* Per-target search state; every mutation happens on the calling
   domain, driven by evaluator results in batch order. *)
type tstate = {
  st_target : target;
  mutable st_seq : (int * (string * int * int) list, string) result;
  st_seen : (string, unit) Hashtbl.t;
  mutable st_results : (string * Compiler.config * int) list;  (* reversed *)
  mutable st_heuristic : (int, string) result;
  mutable st_evaluated : int;
  mutable st_pending : (string * Compiler.config) list;
  mutable st_generations : int;
}

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let job_of (st : tstate) ~sequential config =
  let profile =
    if sequential then []
    else match st.st_seq with Ok (_, counters) -> counters | Error _ -> []
  in
  {
    Wire.kernel = st.st_target.t_kernel;
    config;
    sequential;
    placement = st.st_target.t_placement;
    workload = st.st_target.t_workload;
    profile_counters = profile;
  }

(* Candidates not yet seen by this target, marking them seen. *)
let fresh_only (st : tstate) cands =
  List.filter_map
    (fun (desc, config) ->
      let k = Space.key config in
      if Hashtbl.mem st.st_seen k then None
      else begin
        Hashtbl.add st.st_seen k ();
        Some (desc, config)
      end)
    cands

let best_of (st : tstate) =
  List.fold_left
    (fun acc (desc, config, cycles) ->
      match acc with
      | None -> Some { b_desc = desc; b_config = config; b_cycles = cycles }
      | Some b ->
        (* Strict [< 0]: ties keep the earlier evaluation, matching
           Runner.autotune's selection. *)
        if
          Runner.compare_candidates (cycles, config) (b.b_cycles, b.b_config)
          < 0
        then Some { b_desc = desc; b_config = config; b_cycles = cycles }
        else Some b)
    None
    (List.rev st.st_results)

let run (p : params) (evaluator : evaluator) targets =
  let p =
    {
      p with
      beam = max 1 p.beam;
      generations = max 0 p.generations;
      budget = max 1 p.budget;
    }
  in
  let base_config =
    { (Compiler.default_config ~cores:p.cores ()) with Compiler.machine = p.machine }
  in
  let states =
    List.map
      (fun t ->
        {
          st_target = t;
          st_seq = Error "not measured";
          st_seen = Hashtbl.create 64;
          st_results = [];
          st_heuristic = Error "not measured";
          st_evaluated = 0;
          st_pending = [];
          st_generations = 0;
        })
      targets
  in
  (* Phase 0: every target's sequential profiling reference, one batch. *)
  let seq_measures =
    evaluator
      (List.map (fun st -> job_of st ~sequential:true base_config) states)
  in
  List.iter2 (fun st m -> st.st_seq <- m) states seq_measures;
  (* Generation 0 seeds: the shared fixed-candidate list, reordered so
     the heuristic pick ("baseline") survives any budget. *)
  List.iter
    (fun st ->
      match st.st_seq with
      | Error msg -> st.st_heuristic <- Error msg
      | Ok _ ->
        let cands = Runner.autotune_candidates base_config in
        let baseline, rest =
          List.partition (fun (n, _) -> String.equal n "baseline") cands
        in
        st.st_pending <- take p.budget (fresh_only st (baseline @ rest)))
    states;
  let generation = ref 0 in
  let live = ref (List.exists (fun st -> st.st_pending <> []) states) in
  while !live do
    (* One flat batch across all targets: one service frame (or one
       pool fan-out) per generation. *)
    let batch =
      List.concat_map
        (fun st ->
          List.map (fun (_, config) -> job_of st ~sequential:false config)
            st.st_pending)
        states
    in
    let measures = ref (evaluator batch) in
    List.iter
      (fun st ->
        if st.st_pending <> [] then st.st_generations <- st.st_generations + 1;
        List.iter
          (fun (desc, config) ->
            let m = List.hd !measures in
            measures := List.tl !measures;
            st.st_evaluated <- st.st_evaluated + 1;
            (match m with
            | Ok (cycles, _) ->
              st.st_results <- (desc, config, cycles) :: st.st_results
            | Error _ -> ());
            if String.equal desc "baseline" then
              st.st_heuristic <- Result.map fst m)
          st.st_pending)
      states;
    (* Next generation: expand the beam's neighbors within budget. *)
    List.iter
      (fun st ->
        if !generation >= p.generations then st.st_pending <- []
        else begin
          let remaining = p.budget - st.st_evaluated in
          if remaining <= 0 then st.st_pending <- []
          else begin
            let ranked =
              List.stable_sort
                (fun (_, ca, cya) (_, cb, cyb) ->
                  Runner.compare_candidates (cya, ca) (cyb, cb))
                (List.rev st.st_results)
            in
            let elites = take p.beam ranked in
            let cands =
              List.concat_map
                (fun (_, config, _) ->
                  List.map
                    (fun c -> (Space.describe c, c))
                    (Space.neighbors config))
                elites
            in
            st.st_pending <- take remaining (fresh_only st cands)
          end
        end)
      states;
    incr generation;
    live := List.exists (fun st -> st.st_pending <> []) states
  done;
  List.map
    (fun st ->
      {
        r_target = st.st_target;
        r_seq = Result.map fst st.st_seq;
        r_heuristic = st.st_heuristic;
        r_best = best_of st;
        r_evaluated = st.st_evaluated;
        r_generations = st.st_generations;
      })
    states

let gap (r : row) =
  match (r.r_heuristic, r.r_best) with
  | Ok h, Some b when b.b_cycles > 0 ->
    Some (float_of_int h /. float_of_int b.b_cycles)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Rendering.                                                           *)

let pp_table ppf rows =
  Fmt.pf ppf "%-28s %10s %10s %10s %6s %8s  %s@." "kernel" "seq" "heuristic"
    "best" "gap" "speedup" "best configuration";
  List.iter
    (fun r ->
      match (r.r_seq, r.r_best) with
      | Error msg, _ ->
        Fmt.pf ppf "%-28s error: %s@." r.r_target.t_name msg
      | Ok _, None ->
        Fmt.pf ppf "%-28s all %d candidates failed@." r.r_target.t_name
          r.r_evaluated
      | Ok seq, Some b ->
        let heuristic =
          match r.r_heuristic with Ok h -> string_of_int h | Error _ -> "-"
        in
        let gap_s =
          match gap r with Some g -> Fmt.str "%.2fx" g | None -> "-"
        in
        Fmt.pf ppf "%-28s %10d %10s %10d %6s %7.2fx  %s@." r.r_target.t_name
          seq heuristic b.b_cycles gap_s
          (float_of_int seq /. float_of_int b.b_cycles)
          (Space.describe b.b_config))
    rows;
  let gaps = List.filter_map gap rows in
  let beaten = List.length (List.filter (fun g -> g > 1.0) gaps) in
  let evaluated = List.fold_left (fun a r -> a + r.r_evaluated) 0 rows in
  if gaps <> [] then
    Fmt.pf ppf
      "@.%d configurations over %d kernels; mean heuristic gap %.3fx; \
       search beat the heuristic pick on %d/%d kernels@."
      evaluated (List.length rows)
      (List.fold_left ( +. ) 0. gaps /. float_of_int (List.length gaps))
      beaten (List.length gaps)

let row_json r =
  let result_json = function
    | Ok cycles -> J.Int cycles
    | Error msg -> J.Obj [ ("error", J.String msg) ]
  in
  J.Obj
    ([
       ("name", J.String r.r_target.t_name);
       ("seq_cycles", result_json r.r_seq);
       ("heuristic_cycles", result_json r.r_heuristic);
     ]
    @ (match r.r_best with
      | None -> [ ("best", J.Null) ]
      | Some b ->
        [
          ("best_cycles", J.Int b.b_cycles);
          ("best_config", J.String (Space.describe b.b_config));
          ("best_desc", J.String b.b_desc);
        ])
    @ (match gap r with Some g -> [ ("gap", J.Float g) ] | None -> [])
    @ (match (r.r_seq, r.r_best) with
      | Ok seq, Some b ->
        [
          ( "speedup",
            J.Float (float_of_int seq /. float_of_int b.b_cycles) );
        ]
      | _ -> [])
    @ (match r.r_target.t_paper_speedup4 with
      | Some s -> [ ("paper_speedup4", J.Float s) ]
      | None -> [])
    @ [
        ("evaluated", J.Int r.r_evaluated);
        ("generations", J.Int r.r_generations);
      ])

let to_json ~(params : params) rows =
  J.Obj
    [
      ( "params",
        J.Obj
          [
            ("cores", J.Int params.cores);
            ("beam", J.Int params.beam);
            ("generations", J.Int params.generations);
            ("budget", J.Int params.budget);
          ] );
      ( "evaluated",
        J.Int (List.fold_left (fun a r -> a + r.r_evaluated) 0 rows) );
      ("kernels", J.List (List.map row_json rows));
    ]

let pp_autotune ppf (best_name, best_cycles, candidates) =
  Fmt.pf ppf "%-24s %10s@." "configuration" "cycles";
  List.iter
    (fun (n, cy) ->
      Fmt.pf ppf "%-24s %10d%s@." n cy
        (if String.equal n best_name then "  <- best" else ""))
    candidates;
  let seq = List.assoc "sequential" candidates in
  Fmt.pf ppf "@.best: %s (speedup %.2f over sequential)@." best_name
    (float_of_int seq /. float_of_int best_cycles)
