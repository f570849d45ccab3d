(** The compile-and-simulate server.

    One frame carries one batch.  Handling is three deterministic
    phases: (1) cache lookups and control requests on the calling
    domain, in request order; (2) the misses, grouped by (kernel
    digest, config digest) so one compilation serves every engine and
    request kind of the same job, fanned out over {!Finepar_exec.Pool}
    (whose merge is task-index ordered); (3) stores and slot fills back
    on the calling domain, in group order.  Nothing in any phase
    depends on domain scheduling, so responses are byte-identical at
    [-j1] and [-jN], and a cached response is byte-identical to a fresh
    one because the cache stores the canonical response string
    verbatim.

    Pipeline failures (compile rejection, simulator deadlock, evaluator
    mismatch) become [Error] responses rendered through the exceptions'
    registered printers — deterministic, but never cached. *)

module Compiler = Finepar.Compiler
module Runner = Finepar.Runner
module Gen = Finepar_fuzz.Gen
module Pool = Finepar_exec.Pool

type t = {
  cache : Cache.t;
  pool : Pool.t option;
  mutable stop : bool;
}

let create ?pool ~cache () = { cache; pool; stop = false }

(* ------------------------------------------------------------------ *)
(* Job evaluation.                                                      *)

let compile_job (job : Wire.job) =
  let profile = Finepar_analysis.Profile.of_counters job.profile_counters in
  let config = { job.config with Compiler.profile } in
  if job.sequential then
    Compiler.compile_sequential ~machine:config.Compiler.machine job.kernel
  else Compiler.compile config job.kernel

let workload_of (job : Wire.job) =
  match job.workload with
  | Wire.Seeded seed -> Finepar_kernels.Workload.default ~seed job.kernel
  | Wire.Explicit w -> w

(* The job's placement is materialized against the compiled core count,
   and checking against the reference evaluator is always on. *)
let run_compiled compiled (job : Wire.job) engine =
  let program = compiled.Compiler.code.Finepar_codegen.Lower.program in
  let n_cores = Array.length program.Finepar_machine.Program.cores in
  let core_map = Gen.materialize job.placement n_cores in
  Runner.run ~check:true ~workload:(workload_of job) ~core_map ~engine compiled

let run_job ~engine job = run_compiled (compile_job job) job engine

let run_response compiled (job : Wire.job) engine =
  let r = run_compiled compiled job engine in
  Wire.Run_result
    {
      cycles = r.Runner.cycles;
      instrs = r.Runner.instrs;
      queues_used = r.Runner.queues_used;
      load_counters = r.Runner.load_counters;
      result = r.Runner.result;
      report = { r.Runner.telemetry with Finepar.Report.pass_times = [] };
    }

let verify_response compiled =
  let queue_len =
    compiled.Compiler.config.Compiler.machine
      .Finepar_machine.Config.queue_len
  in
  let res =
    Finepar_verify.Verify.run ~plan:compiled.Compiler.comm
      ~mode:compiled.Compiler.config.Compiler.comm_mode ~queue_len
      compiled.Compiler.code.Finepar_codegen.Lower.program
  in
  Wire.Verify_result
    {
      ok = Finepar_verify.Verify.ok res;
      violations =
        List.map
          (Fmt.str "%a" Finepar_verify.Verify.pp_violation)
          res.Finepar_verify.Verify.violations;
    }

(* (canonical response string, cacheable).  Errors are deterministic
   but never cached: a stored error would mask a later fix only a code
   version bump could clear. *)
let task_response compiled req =
  match compiled with
  | Error msg -> (Wire.response_to_string (Wire.Error msg), false)
  | Ok compiled -> (
    let response () =
      match req with
      | Wire.Run { job; engine } -> run_response compiled job engine
      | Wire.Compile _ -> Wire.Compile_result compiled.Compiler.stats
      | Wire.Verify _ -> verify_response compiled
      | Wire.Stats | Wire.Ping | Wire.Shutdown -> assert false
    in
    match response () with
    | resp -> (Wire.response_to_string resp, true)
    | exception e ->
      (Wire.response_to_string (Wire.Error (Printexc.to_string e)), false))

let compute_group items =
  let compiled =
    match items with
    | (_, req, _) :: _ -> (
      let job = Option.get (Wire.job_of_request req) in
      match compile_job job with
      | c -> Ok c
      | exception e -> Error (Printexc.to_string e))
    | [] -> assert false
  in
  List.map
    (fun (i, req, (key : Cache.key)) ->
      let body, cacheable = task_response compiled req in
      (i, key, cacheable, body))
    items

(* ------------------------------------------------------------------ *)
(* Batch handling.                                                      *)

(* The wire grammar's own errors carry a plain message; anything else
   is rendered through its registered printer. *)
let parse_message = function
  | Finepar_fuzz.Repro.Parse_error msg -> msg
  | e -> Printexc.to_string e

let control t = function
  | Wire.Stats -> Wire.Stats_result (Cache.counters t.cache)
  | Wire.Ping -> Wire.Pong Version.code_version
  | Wire.Shutdown ->
    t.stop <- true;
    Wire.Shutdown_ack
  | Wire.Run _ | Wire.Compile _ | Wire.Verify _ -> assert false

let handle_requests t (reqs : (Wire.request, string) result list) :
    string list =
  let slots = Array.make (List.length reqs) "" in
  let misses = ref [] in
  List.iteri
    (fun i req ->
      match req with
      | Error msg ->
        slots.(i) <-
          Wire.response_to_string (Wire.Error ("parse error: " ^ msg))
      | Ok req -> (
        match Cache.key_of_request t.cache req with
        | None -> slots.(i) <- Wire.response_to_string (control t req)
        | Some key -> (
          match Cache.find t.cache key with
          | Some body -> slots.(i) <- body
          | None -> misses := (i, req, key) :: !misses)))
    reqs;
  (* Group misses by (kernel digest, config digest), preserving first-
     occurrence order: one compile serves all engines/kinds of a job. *)
  let groups = ref [] in
  List.iter
    (fun ((_, _, (key : Cache.key)) as item) ->
      let gk = (key.Cache.kernel_digest, key.Cache.config_digest) in
      match List.assoc_opt gk !groups with
      | Some r -> r := item :: !r
      | None -> groups := (gk, ref [ item ]) :: !groups)
    (List.rev !misses);
  let groups =
    List.rev_map (fun (_, r) -> List.rev !r) !groups |> List.rev
  in
  let computed = Pool.map_opt t.pool ~f:compute_group groups in
  List.iter
    (List.iter (fun (i, key, cacheable, body) ->
         if cacheable then Cache.store t.cache key body;
         slots.(i) <- body))
    computed;
  Array.to_list slots

let handle_frame t payload =
  match Finepar_fuzz.Repro.parse_sexp payload with
  | exception e ->
    Wire.response_to_string
      (Wire.Error ("parse error: " ^ parse_message e))
  | Finepar_fuzz.Repro.List (Finepar_fuzz.Repro.Atom "batch" :: items) ->
    let reqs =
      List.map
        (fun item ->
          match Wire.request_of_sexp item with
          | req -> Ok req
          | exception e -> Error (parse_message e))
        items
    in
    Wire.batch_of_response_strings (handle_requests t reqs)
  | sexp -> (
    match Wire.request_of_sexp sexp with
    | req -> List.hd (handle_requests t [ Ok req ])
    | exception e ->
      Wire.response_to_string
        (Wire.Error ("parse error: " ^ parse_message e)))

(* ------------------------------------------------------------------ *)
(* Framing: "<decimal byte count>\n<payload>".                          *)

let max_frame = 256 * 1024 * 1024

let write_frame oc payload =
  output_string oc (string_of_int (String.length payload));
  output_char oc '\n';
  output_string oc payload;
  flush oc

let read_frame ic =
  match input_line ic with
  | exception End_of_file -> None
  | line -> (
    match int_of_string_opt (String.trim line) with
    | Some n when n >= 0 && n <= max_frame -> (
      match really_input_string ic n with
      | s -> Some s
      | exception End_of_file -> None)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Serving loops.                                                       *)

let serve_channels t ic oc =
  let rec loop () =
    if not t.stop then
      match read_frame ic with
      | None -> ()
      | Some payload ->
        write_frame oc (handle_frame t payload);
        loop ()
  in
  loop ()

let serve_socket t path =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink path with Unix.Unix_error _ -> () | Sys_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> () | Sys_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 16;
      while not t.stop do
        let client, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr client in
        let oc = Unix.out_channel_of_descr client in
        (try serve_channels t ic oc
         with Sys_error _ | Unix.Unix_error _ -> ());
        close_out_noerr oc;
        close_in_noerr ic
      done)
