(* Percentiles, medians and the process facts the metrics are made of. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* nearest-rank percentile of a non-empty sample *)
let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* samples strictly above the nearest-rank [q] percentile *)
let beyond q xs =
  let n = List.length xs in
  n - max 1 (int_of_float (Float.ceil (q *. float_of_int n)))

let median xs = percentile 0.5 xs
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* geometric mean of speedups given in percent *)
let geomean_pct pcts =
  let n = float_of_int (List.length pcts) in
  (Float.exp
     (List.fold_left (fun acc p -> acc +. Float.log (1.0 +. (p /. 100.0))) 0.0 pcts /. n)
   -. 1.0)
  *. 100.0

(* peak resident set (VmHWM) of a process, in MiB *)
let peak_rss_mb pid =
  let path = match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

(* CPU time the hypervisor gave to other guests, summed over this
   machine's CPUs, in seconds (the steal column of /proc/stat) *)
let steal_s () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0.0
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        match String.split_on_char ' ' (input_line ic) |> List.filter (( <> ) "") with
        | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> float_of_string steal /. 100.0
        | _ | (exception _) -> 0.0)

let now = Slo_util.Clock.now_ns
let since_ms t0 = Slo_util.Clock.elapsed_ms ~since:t0
