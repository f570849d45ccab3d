(* Tests for the compile-and-simulate service:

   - wire round-trips: requests, responses, quoted atoms, hex floats
     (including non-finite weights) and full Report.t payloads;
   - cache key hygiene: every job component change is a different key,
     a code-version bump invalidates the whole store;
   - the store survives corruption: truncated / garbage / mismatched
     entries are misses (and are removed), never crashes;
   - eviction respects max_entries;
   - responses are byte-identical cached-vs-fresh and -j1-vs-jN;
   - errors are answered deterministically but never cached;
   - concurrent clients against one forked server over a Unix domain
     socket all get the same bytes. *)

module F = Finepar_fuzz
module Wire = Finepar_service.Wire
module Cache = Finepar_service.Cache
module Server = Finepar_service.Server
module Client = Finepar_service.Client
module Version = Finepar_service.Version

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "finepar-svc-test-%d-%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let job_of_case (c : F.Gen.case) =
  {
    Wire.kernel = c.F.Gen.kernel;
    config = c.F.Gen.config;
    sequential = false;
    placement = c.F.Gen.placement;
    workload = Wire.Seeded c.F.Gen.workload_seed;
    profile_counters = [];
  }

let job_of_seed seed = job_of_case (F.Gen.case_of_seed seed)

let requests_of_seed seed =
  let job = job_of_seed seed in
  List.map
    (fun engine -> Wire.Run { job; engine })
    Finepar_machine.Engine.all
  @ [ Wire.Compile job; Wire.Verify job ]

(* ------------------------------------------------------------------ *)
(* Wire round-trips.                                                   *)

let test_request_roundtrip () =
  List.iter
    (fun seed ->
      List.iter
        (fun req ->
          let s = Wire.request_to_string req in
          let s' = Wire.request_to_string (Wire.request_of_string s) in
          Alcotest.(check string)
            (Printf.sprintf "seed %d request round-trips" seed)
            s s')
        (requests_of_seed seed))
    [ 0; 1; 17; 42; 31337 ]

let test_registry_explicit_workload_roundtrip () =
  (* Registry entries carry their fixed workloads explicitly (arrays of
     hex floats and ints) rather than a seed. *)
  List.iter
    (fun (e : Finepar_kernels.Registry.entry) ->
      let job =
        {
          Wire.kernel = e.Finepar_kernels.Registry.kernel;
          config = Finepar.Compiler.default_config ();
          sequential = false;
          placement = F.Gen.Identity;
          workload = Wire.Explicit e.Finepar_kernels.Registry.workload;
          profile_counters = [ ("x", 1024, 37) ];
        }
      in
      let req = Wire.Run { job; engine = Finepar_machine.Engine.Cycle } in
      let s = Wire.request_to_string req in
      Alcotest.(check string)
        (e.Finepar_kernels.Registry.app ^ " explicit workload round-trips")
        s
        (Wire.request_to_string (Wire.request_of_string s)))
    Finepar_kernels.Registry.all

let roundtrip_weight w =
  let config =
    {
      (Finepar.Compiler.default_config ()) with
      Finepar.Compiler.weights =
        { Finepar_partition.Affinity.w_dep = w; w_time = -0.0; w_prox = w };
    }
  in
  let config' = Wire.config_of_sexp (Wire.sexp_of_config config) in
  config'.Finepar.Compiler.weights

let test_nonfinite_weights_roundtrip () =
  (* Floats travel as %h atoms: bit-exact for finite values, negative
     zero and the infinities.  NaNs canonicalize — %h prints a payload-
     free "nan" — which is exactly what the content-addressed cache
     needs: every NaN digests to the same key. *)
  let bits f = Int64.bits_of_float f in
  List.iter
    (fun w ->
      let weights = roundtrip_weight w in
      Alcotest.(check int64)
        (Printf.sprintf "%h bits" w)
        (bits w)
        (bits weights.Finepar_partition.Affinity.w_dep);
      Alcotest.(check int64)
        "negative zero bits"
        (bits (-0.0))
        (bits weights.Finepar_partition.Affinity.w_time))
    [ Float.infinity; Float.neg_infinity; 0x1.fffp-3; 1e300; Float.min_float ];
  let weights = roundtrip_weight Float.nan in
  Alcotest.(check bool) "nan survives as nan" true
    (Float.is_nan weights.Finepar_partition.Affinity.w_dep);
  Alcotest.(check int64) "nan canonicalizes to one bit pattern"
    (bits (Float.of_string "nan"))
    (bits weights.Finepar_partition.Affinity.w_dep)

let test_quoted_atoms_roundtrip () =
  (* The sexp layer must carry atoms the plain tokenizer would split or
     drop: spaces, parens, quotes, backslashes, newlines, empty. *)
  List.iter
    (fun atom ->
      let s = F.Repro.canon (F.Repro.List [ F.Repro.Atom atom ]) in
      match F.Repro.parse_sexp s with
      | F.Repro.List [ F.Repro.Atom a ] ->
        Alcotest.(check string) (Printf.sprintf "atom %S" atom) atom a
      | _ -> Alcotest.failf "atom %S reparsed to a different shape" atom)
    [
      "plain"; "two words"; "pa(ren)s"; "qu\"ote"; "back\\slash";
      "tab\tnew\nline"; ""; "; not a comment"; "\"";
    ]

let test_response_roundtrip_with_report () =
  (* Full Run payload — including the telemetry report with histograms
     — must round-trip to identical canonical bytes, and the decoded
     report must serialize (JSON and CSV) identically to the
     original. *)
  let cache = Cache.create (temp_dir ()) in
  let server = Server.create ~cache () in
  let reqs = requests_of_seed 7 in
  let responses = Server.handle_requests server (List.map Result.ok reqs) in
  Alcotest.(check int) "one response per request" (List.length reqs)
    (List.length responses);
  List.iter
    (fun s ->
      let r = Wire.response_of_string s in
      Alcotest.(check string) "response round-trips" s
        (Wire.response_to_string r);
      match r with
      | Wire.Run_result p ->
        let report' =
          Wire.report_of_sexp (Wire.sexp_of_report p.Wire.report)
        in
        Alcotest.(check string) "report JSON survives decode"
          (Finepar_telemetry.Json.to_string
             (Finepar.Report.to_json p.Wire.report))
          (Finepar_telemetry.Json.to_string (Finepar.Report.to_json report'));
        Alcotest.(check string) "report CSV survives decode"
          (Finepar.Report.to_csv p.Wire.report)
          (Finepar.Report.to_csv report')
      | Wire.Compile_result _ | Wire.Verify_result _ -> ()
      | _ -> Alcotest.fail "unexpected response kind")
    responses

(* ------------------------------------------------------------------ *)
(* Cache keys.                                                         *)

let test_key_sensitivity () =
  let cache = Cache.create (temp_dir ()) in
  let key req =
    match Cache.key_of_request cache req with
    | Some k -> k
    | None -> Alcotest.fail "cacheable request has no key"
  in
  let base_job = job_of_seed 3 in
  let base = key (Wire.Run { job = base_job; engine = Cycle }) in
  let check_differs name variant =
    let k = key variant in
    Alcotest.(check bool) (name ^ " changes the key") false (k = base)
  in
  let other = job_of_seed 4 in
  check_differs "kernel"
    (Wire.Run { job = { base_job with kernel = other.Wire.kernel }; engine = Cycle });
  check_differs "machine latency"
    (Wire.Run
       {
         job =
           {
             base_job with
             config =
               {
                 base_job.config with
                 Finepar.Compiler.machine =
                   {
                     base_job.config.Finepar.Compiler.machine with
                     Finepar_machine.Config.transfer_latency =
                       base_job.config.Finepar.Compiler.machine
                         .Finepar_machine.Config.transfer_latency + 1;
                   };
               };
           };
         engine = Cycle;
       });
  check_differs "sequential flag"
    (Wire.Run { job = { base_job with sequential = true }; engine = Cycle });
  check_differs "placement"
    (Wire.Run
       { job = { base_job with placement = F.Gen.Single_core }; engine = Cycle });
  check_differs "workload seed"
    (Wire.Run { job = { base_job with workload = Wire.Seeded 999 }; engine = Cycle });
  check_differs "profile counters"
    (Wire.Run
       {
         job = { base_job with profile_counters = [ ("a", 10, 1) ] };
         engine = Cycle;
       });
  check_differs "engine" (Wire.Run { job = base_job; engine = Compiled });
  check_differs "request kind" (Wire.Compile base_job);
  (* Simulation-free kinds share entries across engines: Compile and
     Verify have no engine component to vary. *)
  Alcotest.(check bool) "verify and compile differ" false
    (key (Wire.Verify base_job) = key (Wire.Compile base_job));
  (* Control requests are keyless. *)
  List.iter
    (fun req ->
      Alcotest.(check bool) "control request has no key" true
        (Cache.key_of_request cache req = None))
    [ Wire.Stats; Wire.Ping; Wire.Shutdown ]

let test_version_bump_invalidates () =
  let dir = temp_dir () in
  let v1 = Cache.create ~version:"test-v1" dir in
  let req = Wire.Run { job = job_of_seed 5; engine = Cycle } in
  let k1 = Option.get (Cache.key_of_request v1 req) in
  Cache.store v1 k1 "(response (kind pong) (version test-v1))";
  Alcotest.(check bool) "same version hits" true (Cache.find v1 k1 <> None);
  let v2 = Cache.create ~version:"test-v2" dir in
  let k2 = Option.get (Cache.key_of_request v2 req) in
  Alcotest.(check bool) "bumped version misses" true (Cache.find v2 k2 = None);
  Alcotest.(check string) "only the version component moved"
    k1.Cache.kernel_digest k2.Cache.kernel_digest

let test_corrupt_entries_are_misses () =
  let dir = temp_dir () in
  let cache = Cache.create dir in
  let req = Wire.Run { job = job_of_seed 6; engine = Cycle } in
  let key = Option.get (Cache.key_of_request cache req) in
  let response = "(response (kind pong) (version x))" in
  let entry_path () =
    (* The single .sexp file under the sharded store. *)
    let files = ref [] in
    let rec walk d =
      Array.iter
        (fun name ->
          let p = Filename.concat d name in
          if Sys.is_directory p then walk p
          else if Filename.check_suffix p ".sexp" then files := p :: !files)
        (Sys.readdir d)
    in
    walk dir;
    match !files with
    | [ p ] -> p
    | l -> Alcotest.failf "expected one entry file, found %d" (List.length l)
  in
  let corrupt_with bytes =
    Cache.store cache key response;
    Alcotest.(check (option string)) "intact entry hits" (Some response)
      (Cache.find cache key);
    let p = entry_path () in
    let oc = open_out_bin p in
    output_string oc bytes;
    close_out oc;
    Alcotest.(check (option string)) "corrupt entry is a miss" None
      (Cache.find cache key);
    Alcotest.(check bool) "corrupt entry was removed" false (Sys.file_exists p)
  in
  corrupt_with "";
  corrupt_with "garbage that is not even a sexp (((";
  corrupt_with
    "(entry (kernel_digest 0) (config_digest 0) (engine cycle) (version x))\n(response (kind pong) (version x))\n";
  (* Truncated mid-payload: valid header, unparsable rest. *)
  Cache.store cache key response;
  let p = entry_path () in
  let ic = open_in_bin p in
  let header = input_line ic in
  close_in ic;
  let oc = open_out_bin p in
  output_string oc (header ^ "\n(response (kind");
  close_out oc;
  Alcotest.(check (option string)) "truncated entry is a miss" None
    (Cache.find cache key);
  let corrupt = List.assoc "corrupt" (Cache.counters cache) in
  Alcotest.(check bool)
    (Printf.sprintf "corrupt counter advanced (%d)" corrupt)
    true (corrupt >= 4)

let test_eviction_respects_max_entries () =
  let dir = temp_dir () in
  let cache = Cache.create ~max_entries:2 dir in
  List.iter
    (fun seed ->
      let req = Wire.Run { job = job_of_seed seed; engine = Cycle } in
      let key = Option.get (Cache.key_of_request cache req) in
      Cache.store cache key "(response (kind pong) (version x))")
    [ 10; 11; 12; 13 ];
  Alcotest.(check int) "entries bounded" 2 (Cache.entries cache);
  Alcotest.(check int) "evictions counted" 2
    (List.assoc "evictions" (Cache.counters cache))

(* ------------------------------------------------------------------ *)
(* Server determinism.                                                 *)

let batch_for seeds =
  List.concat_map (fun seed -> requests_of_seed seed) seeds

let test_cached_equals_fresh () =
  let cache = Cache.create (temp_dir ()) in
  let server = Server.create ~cache () in
  let reqs = List.map Result.ok (batch_for [ 20; 21; 22 ]) in
  let cold = Server.handle_requests server reqs in
  let warm = Server.handle_requests server reqs in
  Alcotest.(check (list string)) "cached bytes equal fresh bytes" cold warm;
  let counters = Cache.counters cache in
  Alcotest.(check int) "second pass all hits" (List.length reqs)
    (List.assoc "hits" counters);
  Alcotest.(check int) "first pass all misses" (List.length reqs)
    (List.assoc "misses" counters)

let test_parallel_equals_serial () =
  let reqs = List.map Result.ok (batch_for [ 30; 31; 32; 33 ]) in
  let serial =
    Server.handle_requests
      (Server.create ~cache:(Cache.create (temp_dir ())) ())
      reqs
  in
  let pool = Finepar_exec.Pool.create ~domains:4 () in
  let parallel =
    Server.handle_requests
      (Server.create ~pool ~cache:(Cache.create (temp_dir ())) ())
      reqs
  in
  Alcotest.(check (list string)) "-j1 and -j4 produce identical bytes" serial
    parallel

let test_corpus_parallel_equals_serial () =
  (* The whole regression corpus — which carries both queue-mode and
     shared-cache reproducers — replayed through the service on every
     engine: a 4-domain pool must produce the same bytes as -j1. *)
  let entries =
    List.map F.Corpus.load_file (F.Corpus.files "fuzz_corpus")
  in
  Alcotest.(check bool) "corpus present" true (List.length entries >= 5);
  let modes =
    List.sort_uniq compare
      (List.map
         (fun (e : F.Corpus.entry) ->
           e.F.Corpus.case.F.Gen.config.Finepar.Compiler.comm_mode)
         entries)
  in
  Alcotest.(check int) "corpus covers both comm modes" 2 (List.length modes);
  let reqs =
    List.concat_map
      (fun (e : F.Corpus.entry) ->
        List.map
          (fun engine ->
            Ok (Wire.Run { job = job_of_case e.F.Corpus.case; engine }))
          Finepar_machine.Engine.all)
      entries
  in
  let serial =
    Server.handle_requests
      (Server.create ~cache:(Cache.create (temp_dir ())) ())
      reqs
  in
  let pool = Finepar_exec.Pool.create ~domains:4 () in
  let parallel =
    Server.handle_requests
      (Server.create ~pool ~cache:(Cache.create (temp_dir ())) ())
      reqs
  in
  Alcotest.(check (list string))
    "corpus replay: -j1 and -j4 produce identical bytes" serial parallel

let test_errors_not_cached () =
  (* A workload that truncates one of the kernel's arrays to zero
     elements fails at evaluation: the response must be a deterministic
     Error, and must not be stored (a fix to the pipeline must not be
     masked by a cached failure). *)
  let cache = Cache.create (temp_dir ()) in
  let server = Server.create ~cache () in
  let entry = List.hd Finepar_kernels.Registry.all in
  let kernel = entry.Finepar_kernels.Registry.kernel in
  let broken =
    (List.hd kernel.Finepar_ir.Kernel.arrays).Finepar_ir.Kernel.a_name
  in
  let job =
    {
      Wire.kernel;
      config = Finepar.Compiler.default_config ();
      sequential = false;
      placement = F.Gen.Identity;
      workload = Wire.Explicit [ (broken, [||]) ];
      profile_counters = [];
    }
  in
  let req = [ Ok (Wire.Run { job; engine = Finepar_machine.Engine.Cycle }) ] in
  let first = Server.handle_requests server req in
  let second = Server.handle_requests server req in
  Alcotest.(check (list string)) "errors are deterministic" first second;
  (match List.map Wire.response_of_string first with
  | [ Wire.Error _ ] -> ()
  | _ -> Alcotest.fail "expected an Error response");
  Alcotest.(check int) "errors are never stored" 0
    (List.assoc "stores" (Cache.counters cache));
  Alcotest.(check int) "no entry files appear" 0 (Cache.entries cache)

let test_malformed_items_reported_in_slot () =
  let cache = Cache.create (temp_dir ()) in
  let server = Server.create ~cache () in
  let good = Wire.request_to_string (Wire.Ping) in
  (* A well-formed run request naming an engine that does not exist
     (the retired event-driven engine's old name). *)
  let unknown_engine =
    F.Repro.(
      canon
        (List
           [
             Atom "request";
             List [ Atom "kind"; Atom "run" ];
             List [ Atom "engine"; Atom "event" ];
             Wire.sexp_of_job (job_of_seed 1);
           ]))
  in
  let payload =
    Printf.sprintf "(batch %s (request (kind bogus)) %s %s)" good unknown_engine
      good
  in
  let out = Server.handle_frame server payload in
  match Wire.responses_of_string out with
  | [ Wire.Pong _; Wire.Error _; Wire.Error msg; Wire.Pong _ ] ->
    Alcotest.(check string) "unknown engine named in its slot"
      "parse error: unknown engine \"event\"" msg
  | _ -> Alcotest.failf "bad batch shape: %s" out

(* ------------------------------------------------------------------ *)
(* Concurrent clients against one server.

   OCaml 5 forbids Unix.fork once domains have been spawned (earlier
   tests create pools), so the server and the client processes re-exec
   this binary via Unix.create_process (posix_spawn underneath) with a
   dispatch marker in argv, handled below before Alcotest ever parses
   the command line. *)

let spawn args =
  Unix.create_process Sys.executable_name
    (Array.append [| Sys.executable_name |] args)
    Unix.stdin Unix.stdout Unix.stderr

let client_requests = requests_of_seed 50

let () =
  (* Child modes; never returns for a child. *)
  if Array.length Sys.argv = 4 && Sys.argv.(1) = "--service-serve" then begin
    let cache = Cache.create Sys.argv.(3) in
    let server = Server.create ~cache () in
    Server.serve_socket server Sys.argv.(2);
    exit 0
  end;
  if Array.length Sys.argv = 4 && Sys.argv.(1) = "--service-client" then begin
    let got =
      String.concat "\n"
        (Client.exec_strings (Client.Socket Sys.argv.(2)) client_requests)
    in
    let ic = open_in_bin Sys.argv.(3) in
    let expected = really_input_string ic (in_channel_length ic) in
    close_in ic;
    exit (if String.equal got expected then 0 else 1)
  end

let test_concurrent_clients () =
  let dir = temp_dir () in
  let socket = Filename.concat dir "sock" in
  let server_pid =
    spawn [| "--service-serve"; socket; Filename.concat dir "store" |]
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill server_pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] server_pid)
      with Unix.Unix_error (Unix.ECHILD, _, _) -> ())
    (fun () ->
      let expected =
        Client.exec_strings ~attempts:100 (Client.Socket socket)
          client_requests
      in
      let expected_file = Filename.concat dir "expected" in
      let oc = open_out_bin expected_file in
      output_string oc (String.concat "\n" expected);
      close_out oc;
      (* Several client processes hammering the same server: everyone
         gets the same bytes (all of them from cache by now). *)
      let clients =
        List.init 4 (fun _ ->
            spawn [| "--service-client"; socket; expected_file |])
      in
      List.iter
        (fun pid ->
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _, _ -> Alcotest.fail "concurrent client saw different bytes")
        clients;
      (* One more from the parent, then orderly shutdown. *)
      (match Client.exec (Client.Socket socket) [ Wire.Ping ] with
      | [ Wire.Pong v ] ->
        Alcotest.(check string) "pong carries the code version"
          Version.code_version v
      | _ -> Alcotest.fail "bad ping response");
      (match Client.exec (Client.Socket socket) [ Wire.Shutdown ] with
      | [ Wire.Shutdown_ack ] -> ()
      | _ -> Alcotest.fail "bad shutdown response");
      ignore (Unix.waitpid [] server_pid);
      Alcotest.(check bool) "socket removed on exit" false
        (Sys.file_exists socket))

let () =
  Alcotest.run "service"
    [
      ( "wire",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "explicit workloads round-trip" `Quick
            test_registry_explicit_workload_roundtrip;
          Alcotest.test_case "non-finite weights bit-exact" `Quick
            test_nonfinite_weights_roundtrip;
          Alcotest.test_case "quoted atoms round-trip" `Quick
            test_quoted_atoms_roundtrip;
          Alcotest.test_case "responses and reports round-trip" `Quick
            test_response_roundtrip_with_report;
        ] );
      ( "cache",
        [
          Alcotest.test_case "every key component matters" `Quick
            test_key_sensitivity;
          Alcotest.test_case "version bump invalidates" `Quick
            test_version_bump_invalidates;
          Alcotest.test_case "corruption is a miss, not a crash" `Quick
            test_corrupt_entries_are_misses;
          Alcotest.test_case "eviction respects max_entries" `Quick
            test_eviction_respects_max_entries;
        ] );
      ( "server",
        [
          Alcotest.test_case "cached equals fresh, byte for byte" `Quick
            test_cached_equals_fresh;
          Alcotest.test_case "-j1 equals -j4, byte for byte" `Quick
            test_parallel_equals_serial;
          Alcotest.test_case "corpus replay -j1 equals -j4, both comm modes"
            `Quick test_corpus_parallel_equals_serial;
          Alcotest.test_case "errors deterministic, never cached" `Quick
            test_errors_not_cached;
          Alcotest.test_case "malformed batch items fail in place" `Quick
            test_malformed_items_reported_in_slot;
        ] );
      ( "socket",
        [
          Alcotest.test_case "concurrent clients, one server" `Quick
            test_concurrent_clients;
        ] );
    ]
