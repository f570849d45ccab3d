(* service-mixed: one request per [Server.handle_frame] call, wire
   encoding and decoding included, against a store in a temporary
   directory that starts empty at every pass.  Kernels come from the 51 hot loops
   (registry kernels with explicit seeded workloads, excluded loops with
   seeded ones); configs from cores {2,4,8} x comm {queues, shared
   cache} x issue width {1,2} x transfer latency {1,5,20}; kinds 80% Run,
   10% Compile, 10% Verify.  Two in three distinct requests are sent a
   second time at a seeded later point, so 40% are answered by the
   store.  Runs use the default engine and the server's [check:true]
   path. *)

open Finepar
module Config = Finepar_machine.Config
module Comm = Finepar_transform.Comm
module Rng = Finepar_fuzz.Rng
module Wire = Finepar_service.Wire
module Cache = Finepar_service.Cache
module Server = Finepar_service.Server

(* Configurations each kernel is requested under in one pass. *)
let configs_per_kernel = 3

(* Distinct request [g] is sent a second time when this holds: two in
   three are, so 40% of a pass's requests are store hits and the median
   latency falls inside the misses, not on the edge between the two. *)
let repeated g = g mod 3 <> 1

let rec remove_files path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true -> Array.iter (fun f -> remove_files (Filename.concat path f)) (Sys.readdir path)
  | false -> Sys.remove path

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path

let configs =
  List.concat_map
    (fun cores ->
      List.concat_map
        (fun comm_mode ->
          List.concat_map
            (fun width ->
              List.map
                (fun latency ->
                  let machine =
                    Config.default
                    |> Config.with_transfer_latency latency
                    |> Config.with_issue_width width
                  in
                  { (Compiler.default_config ~cores ()) with Compiler.machine; comm_mode })
                [ 1; 5; 20 ])
            [ 1; 2 ])
        [ Comm.Queues; Comm.Shared_cache ])
    [ 2; 4; 8 ]
  |> Array.of_list

let registry_names =
  List.map
    (fun (e : Finepar_kernels.Registry.entry) ->
      e.Finepar_kernels.Registry.kernel.Finepar_ir.Kernel.name)
    Finepar_kernels.Registry.all

(* The distinct requests of a pass.  Which (kernel, config, kind)
   triples occur is fixed: kernel i takes configs (3i + j) * 5 mod 36
   for j < 3 (stride 5 spreads the kernels over cores, comm mode, width
   and latency; every config occurs 4 or 5 times), and every tenth
   request is a Compile and every tenth a Verify.  The seed draws the
   input arrays. *)
let uniques rng =
  List.concat
    (List.mapi
       (fun i (k : Finepar_ir.Kernel.t) ->
         List.init configs_per_kernel (fun j ->
             let g = (i * configs_per_kernel) + j in
             let seed = Rng.int_below rng 1_000_000_000 in
             let job =
               {
                 Wire.kernel = k;
                 config = configs.(g * 5 mod Array.length configs);
                 sequential = false;
                 placement = Finepar_fuzz.Gen.Identity;
                 workload =
                   (if List.mem k.Finepar_ir.Kernel.name registry_names then
                      Wire.Explicit (Finepar_kernels.Workload.default ~seed k)
                    else Wire.Seeded seed);
                 profile_counters = [];
               }
             in
             match g mod 10 with
             | 8 -> Wire.Compile job
             | 9 -> Wire.Verify job
             | _ -> Wire.Run { job; engine = Finepar_machine.Engine.default }))
       Finepar_kernels.Corpus.all_hot_loops)
  |> Array.of_list

(* A seeded order for [u] distinct requests followed by the second
   copies [reps] (indices of repeated requests): canonical op [j < u]
   sends request [j], op [u + k] sends request [reps.(k)], and every
   second copy comes after its first, so the store answers it. *)
let interleave rng u reps =
  let firsts = Harness.order rng u in
  let second = Hashtbl.create 64 in
  Array.iteri (fun k g -> Hashtbl.replace second g (u + k)) reps;
  let total = u + Array.length reps in
  let pending = ref [] and next = ref 0 and out = ref [] in
  for _ = 1 to total do
    let take_new = !next < u && (!pending = [] || Rng.bool rng) in
    if take_new then begin
      let j = firsts.(!next) in
      out := j :: !out;
      Option.iter (fun op -> pending := op :: !pending) (Hashtbl.find_opt second j);
      incr next
    end
    else begin
      let op = List.nth !pending (Rng.int_below rng (List.length !pending)) in
      out := op :: !out;
      pending := List.filter (fun x -> x <> op) !pending
    end
  done;
  Array.of_list (List.rev !out)

let setup ~seed =
  let rng = Rng.create seed in
  let reqs = uniques rng in
  let u = Array.length reqs in
  let reps = Array.of_list (List.filter repeated (List.init u Fun.id)) in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "perfbench-%d" (Unix.getpid ()))
  in
  let server = ref None in
  let cache = ref None in
  (* First response of each request string in the current pass. *)
  let answered : (string, string) Hashtbl.t = Hashtbl.create 512 in
  let hits = ref 0 and misses = ref 0 in
  let new_pass () =
    (* Outside the pass clock: empty the store.  Its shard directories
       stay, because making and removing them every pass made the
       file system's cost for a miss grow from run to run. *)
    remove_files dir;
    let c = Cache.create dir in
    cache := Some c;
    server := Some (Server.create ~cache:c ());
    Hashtbl.reset answered;
    hits := 0;
    misses := 0
  in
  let op req () =
    let server = Option.get !server in
    let payload = Harness.span "Wire.request_to_string" (fun () -> Wire.request_to_string req) in
    let response =
      Harness.span "Server.handle_frame" (fun () -> Server.handle_frame server payload)
    in
    let decoded =
      Harness.span "Wire.response_of_string" (fun () -> Wire.response_of_string response)
    in
    let first = Hashtbl.find_opt answered payload in
    let hit = Option.is_some first in
    if hit then incr hits else incr misses;
    Harness.add "service.request_bytes" (float_of_int (String.length payload));
    Harness.add "service.response_bytes" (float_of_int (String.length response));
    (match decoded with
    | Wire.Run_result p -> if not hit then ignore (Layers.add_report p.Wire.report)
    | Wire.Compile_result s -> if not hit then ignore (Layers.add_compile_stats s)
    | Wire.Verify_result { ok = true; _ } -> ()
    | Wire.Verify_result { ok = false; violations } ->
      Harness.add "verify.rejections" 1.;
      failwith ("verifier rejected: " ^ String.concat "; " violations)
    | Wire.Error msg -> failwith ("service error: " ^ msg)
    | Wire.Stats_result _ | Wire.Pong _ | Wire.Shutdown_ack ->
      failwith "unexpected control response");
    (match first with
    | Some bytes when not (String.equal bytes response) ->
      failwith "cached response differs from the fresh one"
    | Some _ -> ()
    | None -> Hashtbl.replace answered payload response);
    { Harness.signature = Digest.to_hex (Digest.string response); hit }
  in
  let end_pass () =
    let counters = Cache.counters (Option.get !cache) in
    let get n = List.assoc n counters in
    Harness.add "service.cache_hits" (float_of_int (get "hits"));
    Harness.add "service.cache_misses" (float_of_int (get "misses"));
    Harness.add "service.cache_stores" (float_of_int (get "stores"));
    (* The latency split trusts the request-string bookkeeping above;
       the store's own counters must agree with it. *)
    if get "hits" <> !hits || get "misses" <> !misses then
      failwith
        (Printf.sprintf "store counted %d hits / %d misses, expected %d / %d"
           (get "hits") (get "misses") !hits !misses)
  in
  {
    Harness.ops =
      Array.append (Array.map op reqs) (Array.map (fun g -> op reqs.(g)) reps);
    order = interleave rng u reps;
    new_pass;
    end_pass;
    exact = (fun () -> []);
    cleanup = (fun () -> rm_rf dir);
  }

let workload =
  { Harness.name = "service-mixed"; domains = 1; warmup_ops = 8; setup }
