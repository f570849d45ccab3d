(* compile-scale: compilation only, at one domain.  The 51 hot loops
   (18 registry kernels + 33 excluded loops) plus nine random kernels
   from the fuzz generator, each compiled under cores {2,4,8} x merge
   {greedy, multi-pair} x throughput {off,on}.  No op simulates, so a
   simulator change should leave this workload flat. *)

open Finepar
module Rng = Finepar_fuzz.Rng

let generated_kernels = 9

let configs =
  List.concat_map
    (fun cores ->
      List.concat_map
        (fun algorithm ->
          List.map
            (fun throughput ->
              { (Compiler.default_config ~cores ()) with Compiler.algorithm; throughput })
            [ false; true ])
        [ `Greedy; `Multi_pair ])
    [ 2; 4; 8 ]

let op config kernel () =
  let c = Harness.span "Compiler.compile" (fun () -> Compiler.compile config kernel) in
  let program = c.Compiler.code.Finepar_codegen.Lower.program in
  let sizes =
    Array.to_list program.Finepar_machine.Program.cores
    |> List.map (fun (p : Finepar_machine.Program.core_program) ->
           string_of_int (Array.length p.Finepar_machine.Program.code))
  in
  let stats = Layers.add_compile_stats c.Compiler.stats in
  {
    Harness.signature =
      Printf.sprintf "%s c%d %s tp%b | %s | code %s" kernel.Finepar_ir.Kernel.name
        config.Compiler.cores
        (match config.Compiler.algorithm with
        | `Greedy -> "greedy"
        | `Multi_pair -> "multi-pair")
        config.Compiler.throughput stats (String.concat "," sizes);
    hit = false;
  }

(* The generated kernels come from fixed generator seeds, not from the
   workload seed: their compile cost varies widely with the draw, and a
   per-seed draw moved ops_per_s by a third between seeds.  The workload
   seed draws the compile order. *)
let setup ~seed =
  let generated =
    List.init generated_kernels (fun i -> Finepar_fuzz.Gen.gen_kernel (Rng.create (i + 1)))
  in
  let kernels = Finepar_kernels.Corpus.all_hot_loops @ generated in
  let ops =
    Array.of_list (List.concat_map (fun k -> List.map (fun c -> op c k) configs) kernels)
  in
  {
    Harness.ops;
    order = Harness.order (Rng.create seed) (Array.length ops);
    new_pass = ignore;
    end_pass = ignore;
    exact = (fun () -> []);
    cleanup = ignore;
  }

let workload =
  { Harness.name = "compile-scale"; domains = 1; warmup_ops = 240; setup }
