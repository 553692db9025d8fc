(* Dense per-function CFG edge counters: the PBO instrumentation.

   One int array per function of [prog.funcs], indexed by position.
   Function [i] with [nb] blocks keeps the edge [src -> dst] at
   [(src + 1) * nb + dst], so row 0 ([src = -1]) holds the function
   entries. The engines resolve each counter's index when they compile
   a terminator, so a taken edge costs one array increment. *)

type t = { rows : int array array; nblocks : int array }

let create (prog : Ir.program) =
  let nblocks =
    Array.of_list (List.map (fun (f : Ir.func) -> f.next_block) prog.funcs)
  in
  { rows = Array.map (fun nb -> Array.make ((nb + 1) * nb) 0) nblocks; nblocks }

let row t fidx = t.rows.(fidx)
let slot ~nblocks ~src ~dst = ((src + 1) * nblocks) + dst

let count t fidx ~src ~dst =
  t.rows.(fidx).(slot ~nblocks:t.nblocks.(fidx) ~src ~dst)

let iter t f =
  Array.iteri
    (fun fidx row ->
      let nb = t.nblocks.(fidx) in
      Array.iteri
        (fun k n -> if n > 0 then f fidx ~src:((k / nb) - 1) ~dst:(k mod nb) n)
        row)
    t.rows
