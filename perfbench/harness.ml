(* The machinery every workload shares: the closed-loop timed window,
   latency percentiles, the determinism check, per-layer counts and the
   result line.

   A workload instance is one fixed list of ops (a "pass") built from
   the seed.  The window replays whole passes: every pass runs to
   completion, so the exact metrics and the simulated-statistics digest
   cover the same ops on every run of one seed, and a further pass
   starts only while it is expected to end inside [--seconds].  Every
   later pass must reproduce each op's signature from the first pass; a
   difference counts as a failed op. *)

module Tracer = Finepar_telemetry.Tracer

(* Wall-clock time, comparable with the launching process's: set-up is
   timed from the moment the process was started. *)
let now = Unix.gettimeofday

(* Monotonic time in seconds with nanosecond resolution, for op
   latencies and pass times: the wall clock's microseconds would
   quantize ops of a few tens of microseconds. *)
let clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* What one op returns: [signature] must be a deterministic function of
   the op's inputs (it feeds the determinism check and the digest);
   [hit] says whether a cache answered (service requests only). *)
type outcome = { signature : string; hit : bool }

type instance = {
  ops : (unit -> outcome) array;
      (** one pass, in canonical order: the set of ops does not depend on
          the seed, so run-to-run spread comes from inputs and order *)
  order : int array;  (** seeded execution order: a permutation of [ops] *)
  new_pass : unit -> unit;  (** called before each pass *)
  end_pass : unit -> unit;  (** consistency check; raises [Failure] *)
  exact : unit -> (string * float) list;
      (** simulated (exact) metrics over the first pass *)
  cleanup : unit -> unit;
}

type workload = {
  name : string;
  domains : int;  (** domains the workload's ops run on *)
  warmup_ops : int;
      (** the first canonical ops, replayed untimed at the end of set-up *)
  setup : seed:int -> instance;
}

(* ---- per-layer counts ---------------------------------------------- *)

let tracing () = Option.is_some (Tracer.active ())

(* Counts the workloads add to as they run (simulated statistics,
   compile stats, bytes, batch sizes).  Only ops run under the tracer
   count, so the per-layer report covers exactly the traced ops. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 64
let add name v =
  if tracing () then
    Hashtbl.replace counts name
      (v +. Option.value (Hashtbl.find_opt counts name) ~default:0.)
let count name = Option.value (Hashtbl.find_opt counts name) ~default:0.

(* A benchmark span around a call into a public function; one atomic
   load when no tracer is installed. *)
let span name f = Tracer.with_span ~cat:"bench" name f

(* The process's resident-set high-water mark, from /proc. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* ---- the timed window ---------------------------------------------- *)

type state = {
  inst : instance;
  first : string option array;  (** first-pass signature of each op *)
  hit : bool array;  (** whether a cache answered the op *)
  mutable samples : (int * float) list;
      (** (op, latency) of every op that returned, over all passes *)
  mutable rates : float list;  (** each pass's ops per wall second *)
  mutable rss_mb : float;
      (** resident-set high-water mark at the end of the [min_passes]th
          pass: the mark keeps rising with later passes (kept samples,
          heap growth), which would tie it to how fast the host ran *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** first few failure messages *)
  mutable passes : int;
}

let state inst =
  let n = Array.length inst.ops in
  {
    inst;
    first = Array.make n None;
    hit = Array.make n false;
    samples = [];
    rates = [];
    rss_mb = nan;
    attempted = 0;
    failed = 0;
    errors = [];
    passes = 0;
  }

let fail st msg =
  st.failed <- st.failed + 1;
  if List.length st.errors < 5 then st.errors <- msg :: st.errors

(* One pass.  Its clock runs from the start of its first op to the end
   of its last one: [new_pass] (a fresh service store) is not an op. *)
let run_pass st =
  st.inst.new_pass ();
  let p0 = clock () in
  Array.iter
    (fun i ->
      let op = st.inst.ops.(i) in
      let t0 = clock () in
      let r = match op () with o -> Ok o | exception e -> Error e in
      let dt = clock () -. t0 in
      st.attempted <- st.attempted + 1;
      match r with
      | Error e -> fail st (Printf.sprintf "op %d: %s" i (Printexc.to_string e))
      | Ok o -> (
        st.samples <- (i, dt) :: st.samples;
        st.hit.(i) <- o.hit;
        match st.first.(i) with
        | None -> st.first.(i) <- Some o.signature
        | Some s when String.equal s o.signature -> ()
        | Some _ -> fail st (Printf.sprintf "op %d: result differs from the first pass" i)))
    st.inst.order;
  let wall = clock () -. p0 in
  st.rates <- (float_of_int (Array.length st.inst.order) /. wall) :: st.rates;
  (try st.inst.end_pass () with Failure msg -> fail st msg);
  st.passes <- st.passes + 1

(* Run whole passes for about [seconds]: [min_passes] always, so the
   median pass is not an extreme one, and each later one only if the
   previous pass's duration still fits. *)
let min_passes = 3

let window st ~seconds =
  let t0 = clock () in
  let last = ref 0. in
  while st.passes < min_passes || clock () -. t0 +. !last <= seconds do
    let p0 = clock () in
    run_pass st;
    if st.passes = min_passes then st.rss_mb <- peak_rss_mb ();
    last := Float.max 1e-9 (clock () -. p0)
  done

(* The traced run: untraced and traced passes alternate, so both see
   the same host conditions, until the next pair would overrun
   [seconds]; at least one pair. *)
let paired_window plain traced tracer ~seconds =
  let t0 = clock () in
  let last = ref 0. in
  while !last = 0. || clock () -. t0 +. !last <= seconds do
    let p0 = clock () in
    run_pass plain;
    Tracer.install tracer;
    Fun.protect ~finally:Tracer.uninstall (fun () -> run_pass traced);
    last := Float.max 1e-9 (clock () -. p0)
  done

(* ---- statistics ------------------------------------------------------ *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, reported only when at least ten samples lie
   above it. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
  if n = 0 || n - 1 - max rank 0 < 10 then None else Some a.(max rank 0)

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))

(* First-pass signatures in canonical op order, hashed: the
   simulated-statistics digest a run is compared against. *)
let digest st =
  let b = Buffer.create 4096 in
  Array.iteri
    (fun i s ->
      Buffer.add_string b (string_of_int i);
      Buffer.add_char b ' ';
      Buffer.add_string b (Option.value s ~default:"<failed>");
      Buffer.add_char b '\n')
    st.first;
  Digest.to_hex (Digest.string (Buffer.contents b))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Finepar_fuzz.Rng.int_below rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* A seeded execution order for [n] canonical ops. *)
let order rng n = shuffle rng (Array.init n Fun.id)

(* Latencies of every op that returned, over all passes, optionally
   only hits or misses. *)
let latencies ?hit st =
  List.filter_map
    (fun (i, dt) ->
      if Option.fold hit ~none:true ~some:(Bool.equal st.hit.(i)) then Some dt else None)
    st.samples

(* Ops per host second: the median over passes of a pass's ops divided
   by its wall time.  A closed loop with one client, no think time. *)
let ops_per_s st = median st.rates
