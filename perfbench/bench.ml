(* The benchmark program: one workload per process.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--launched T] [--setup-only]

   Sets the workload up (inputs, store, pool, warm-up ops), then replays
   its seeded ops in a closed loop with one client for about S seconds.
   Set-up time runs from T, the wall-clock time at which the caller
   started the process (default: when [main] starts), to the first
   timed op; --setup-only prints that time and stops there.  With
   --trace 0 it prints the end-to-end metrics; with --trace 1 it
   alternates untraced passes with passes under a [Tracer] and prints
   the per-layer metrics instead.  The last line is one JSON object. *)

module Json = Finepar_telemetry.Json
module Tracer = Finepar_telemetry.Tracer

let workloads =
  [
    Paper_eval.workload;
    Compile_scale.workload;
    Service_mixed.workload;
    Autotune.workload;
  ]

let set_up (w : Harness.workload) ~seed =
  let inst = w.Harness.setup ~seed in
  inst.Harness.new_pass ();
  (* Warm-up failures are not counted here: the same ops run again in
     the timed passes, which count them. *)
  Array.iteri
    (fun i op -> if i < w.Harness.warmup_ops then try ignore (op ()) with _ -> ())
    inst.Harness.ops;
  (try inst.Harness.end_pass () with Failure _ -> ());
  inst

let line name value unit note = Printf.printf "%-28s %14.6g %-10s %s\n" name value unit note

(* End-to-end metrics of an untraced window, printed as they are taken.
   Percentiles with fewer than ten samples above them are printed as
   missing and left out. *)
let end_to_end (w : Harness.workload) (st : Harness.state) ~setup_s =
  let rss = st.Harness.rss_mb in
  let note n = Printf.sprintf "(n=%d samples over %d passes)" n st.Harness.passes in
  let pct name xs p =
    match Harness.percentile xs p with
    | Some v ->
      line name (1000. *. v) "ms" (note (List.length xs));
      [ (name, 1000. *. v, "ms") ]
    | None ->
      Printf.printf "%-28s %14s %-10s (n=%d: fewer than 10 samples above it)\n" name "-" "ms"
        (List.length xs);
      []
  in
  let all = Harness.latencies st in
  line "setup_s" setup_s "s" "(process start to first timed op)";
  let ops_per_s = Harness.ops_per_s st in
  line "ops_per_s" ops_per_s "1/s" (Printf.sprintf "(median of %d passes)" st.Harness.passes);
  let lat =
    List.concat_map
      (fun (name, p) -> pct name all p)
      [ ("op_p50_ms", 0.5); ("op_p90_ms", 0.9); ("op_p99_ms", 0.99) ]
  in
  let split =
    if w.Harness.name = Service_mixed.workload.Harness.name then
      List.concat_map
        (fun (name, hit) -> pct name (Harness.latencies ~hit st) 0.5)
        [ ("hit_p50_ms", true); ("miss_p50_ms", false) ]
    else []
  in
  line "peak_rss_mb" rss "MB" (Printf.sprintf "(set-up and the first %d passes)" Harness.min_passes);
  [ ("setup_s", setup_s, "s"); ("ops_per_s", ops_per_s, "1/s") ]
  @ lat @ split
  @ [ ("peak_rss_mb", rss, "MB") ]

let () =
  let launched = ref (Harness.now ()) in
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--launched", Arg.Set_float launched, "T wall-clock time the process was started");
      ("--setup-only", Arg.Set setup_only, " print the set-up time and stop");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--launched T] [--setup-only]";
  let w =
    match List.find_opt (fun (w : Harness.workload) -> w.Harness.name = !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (expected one of: %s)\n" !workload
        (String.concat ", " (List.map (fun (w : Harness.workload) -> w.Harness.name) workloads));
      exit 2
  in
  let seconds = float_of_int (max 1 !seconds) in
  let inst = set_up w ~seed:!seed in
  let setup_s = Harness.now () -. !launched in
  if !setup_only then begin
    inst.Harness.cleanup ();
    Printf.printf "setup_s %.9f\n" setup_s;
    exit 0
  end;
  let st = Harness.state inst in
  let windows, layers =
    if !trace = 0 then begin
      Harness.window st ~seconds;
      ([ ("timed", st) ], None)
    end
    else begin
      let traced = { (Harness.state inst) with Harness.first = st.Harness.first } in
      let tracer = Tracer.create () in
      Option.iter Finepar_exec.Pool.reset_stats !Layers.pool;
      Harness.paired_window st traced tracer ~seconds;
      ( [ ("untraced", st); ("traced", traced) ],
        Some
          (Layers.metrics ~spans:(Tracer.spans tracer) ~untraced:(Harness.ops_per_s st)
             ~traced:(Harness.ops_per_s traced)) )
    end
  in
  let exact = inst.Harness.exact () in
  let digest = Harness.digest st in
  inst.Harness.cleanup ();
  let sum f = List.fold_left (fun a (_, s) -> a + f s) 0 windows in
  let attempted = sum (fun s -> s.Harness.attempted) in
  let failed = sum (fun s -> s.Harness.failed) in
  Printf.printf "workload %s seed %d: %d domain(s), %d ops a pass, %s\n" w.Harness.name !seed
    w.Harness.domains (Array.length inst.Harness.ops)
    (String.concat ", "
       (List.map (fun (kind, s) -> Printf.sprintf "%d %s passes" s.Harness.passes kind) windows));
  List.iter
    (fun (_, s) -> List.iter (Printf.printf "FAILED %s\n") (List.rev s.Harness.errors))
    windows;
  let metrics =
    match layers with
    | None -> end_to_end w st ~setup_s
    | Some m ->
      List.iter (fun (n, v, u) -> line n v u "") m;
      m
  in
  line "error_rate"
    (float_of_int failed /. float_of_int (max 1 attempted))
    "ratio"
    (Printf.sprintf "(%d/%d)" failed attempted);
  (* Simulated metrics are exact: identical on every run of one seed. *)
  List.iter
    (fun (n, v) ->
      line n v
        (if n = "paper_mape_pct" then "%" else "ratio")
        "(simulated, exact; the model is validated only against the paper's published speedups)")
    exact;
  Printf.printf "digest %s\n" digest;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (n, v, u) ->
                     (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
                   metrics) );
            ("digest", Json.String digest);
          ]))
