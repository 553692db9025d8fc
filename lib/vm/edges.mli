(** Dense per-function CFG edge counters: the PBO instrumentation.

    Handed to an engine ({!Backend.create}[ ~edges]), the counters
    record every taken CFG edge of the run: the compiled engines
    increment them inline in their terminators (and, under superblock
    fusion, for every edge a fused chain jumps over), the tree-walker
    in its block loop. All engines produce identical counts. *)

type t

val create : Ir.program -> t
(** Zeroed counters for every function of the program, indexed by its
    position in [prog.funcs]. *)

val row : t -> int -> int array
(** The counter array of the [i]-th function, laid out by {!slot}. For
    the engines. *)

val slot : nblocks:int -> src:int -> dst:int -> int
(** [(src + 1) * nblocks + dst]: the index of edge [src -> dst] in a
    function of [nblocks] blocks. [src = -1] is the function entry. *)

val count : t -> int -> src:int -> dst:int -> int
(** [count t i ~src ~dst]: how often the [i]-th function took the edge
    [src -> dst] ([src = -1]: how often it was entered at [dst]). *)

val iter : t -> (int -> src:int -> dst:int -> int -> unit) -> unit
(** Visit every non-zero counter as [f i ~src ~dst n], in order of
    function index, then [src] (entries first), then [dst]. *)
