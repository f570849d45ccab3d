(** Simulation engine selection.  The drivers themselves live in {!Sim};
    the compiled engine's fast-forward soundness argument is stated next
    to its driver there. *)

type t = Cycle | Compiled

let default = Cycle
let all = [ Cycle; Compiled ]

let to_string = function Cycle -> "cycle" | Compiled -> "compiled"

let of_string = function
  | "cycle" -> Some Cycle
  | "compiled" -> Some Compiled
  | _ -> None
