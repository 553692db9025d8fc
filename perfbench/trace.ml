(* Spans recorded by the benchmark around each call it makes into a
   layer of the system. Spans live in memory and are written out once,
   as Chrome trace-event JSON, when the run ends; [enabled = false]
   makes every call a plain function call, which is how the end-to-end
   numbers are measured. *)

module Clock = Slo_util.Clock

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root *)
  op : int;      (* the workload operation the span belongs to *)
  lane : int;    (* 1: a call made here; 2: a daemon request in flight *)
  t0 : int64;
  mutable t1 : int64;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0

(* the open spans, innermost first, so nested calls find their parent
   without threading it through every signature *)
let stack : span list ref = ref []

let current_op = ref 0
let set_op n = current_op := n

let open_span name =
  let parent, op = match !stack with p :: _ -> (p.id, p.op) | [] -> (-1, !current_op) in
  incr next_id;
  let s = { id = !next_id; name; parent; op; lane = 1; t0 = Clock.now_ns (); t1 = 0L } in
  stack := s :: !stack;
  s

let close_span s =
  s.t1 <- Clock.now_ns ();
  (match !stack with _ :: rest -> stack := rest | [] -> ());
  spans := s :: !spans

let span name f =
  if not !enabled then f ()
  else begin
    let s = open_span name in
    Fun.protect ~finally:(fun () -> close_span s) f
  end

(* a span whose interval was measured elsewhere (a daemon request, from
   its batch's send to its reply) *)
let record ~name ~op ~t0 ~t1 =
  if !enabled then begin
    incr next_id;
    spans := { id = !next_id; name; parent = -1; op; lane = 2; t0; t1 } :: !spans
  end

let reset () =
  spans := [];
  stack := []

let all () = List.rev !spans

let dur_ns s = Int64.to_float (Int64.sub s.t1 s.t0)

(* per-name totals: calls, total and self time in ns. Self time is the
   span's duration minus the part its children cover (children of one
   span run one after another, so they never overlap). *)
type row = { mutable calls : int; mutable total_ns : float; mutable self_ns : float }

let table () =
  let all = all () in
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (dur_ns s +. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.parent)))
    all;
  let rows = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let r =
        match Hashtbl.find_opt rows s.name with
        | Some r -> r
        | None ->
          let r = { calls = 0; total_ns = 0.0; self_ns = 0.0 } in
          Hashtbl.replace rows s.name r;
          r
      in
      let d = dur_ns s in
      r.calls <- r.calls + 1;
      r.total_ns <- r.total_ns +. d;
      r.self_ns <-
        r.self_ns +. d -. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.id))
    all;
  rows

let write_chrome path =
  let all = all () in
  let base =
    List.fold_left (fun m s -> if Int64.compare s.t0 m < 0 then s.t0 else m)
      (match all with s :: _ -> s.t0 | [] -> 0L) all
  in
  let us t = Int64.to_float (Int64.sub t base) /. 1000.0 in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\
         \"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}\n"
        (if i = 0 then "" else ",") s.name s.lane (us s.t0) (us s.t1 -. us s.t0)
        s.id s.parent s.op)
    all;
  output_string oc "]}\n";
  close_out oc
