(* Committed reference data and the failure count.

   [data/stdout/KEY.out] holds a program's standard output for one
   argument list, produced by the walk interpreter (the reference engine
   every compiled engine must agree with byte for byte). [data/expected.tsv]
   holds, one [key<TAB>value] line each, the counts and decisions that
   must repeat exactly: VM steps, cache-simulator counts, cycles, layout
   plans, report digests and the tuner's winner. [--regen] rewrites both
   from the current program; a normal run compares against them, and
   every mismatch is a failed operation. *)

let dir = "perfbench/data"
let regen = ref false
let expected : (string, string) Hashtbl.t = Hashtbl.create 64
let failures = ref 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let expected_path = Filename.concat dir "expected.tsv"

let load () =
  Hashtbl.reset expected;
  if not !regen then
    List.iter
      (fun line ->
        match String.index_opt line '\t' with
        | Some i ->
          Hashtbl.replace expected (String.sub line 0 i)
            (String.sub line (i + 1) (String.length line - i - 1))
        | None -> ())
      (String.split_on_char '\n' (read_file expected_path))

let save () =
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) expected []) in
  write_file expected_path
    (String.concat ""
       (List.map (fun k -> Printf.sprintf "%s\t%s\n" k (Hashtbl.find expected k)) keys))

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      if !failures <= 20 then prerr_endline ("FAIL " ^ msg))
    fmt

(* [expect key actual] is true when [actual] is the committed value *)
let expect key actual =
  if !regen then begin
    Hashtbl.replace expected key actual;
    true
  end
  else
    match Hashtbl.find_opt expected key with
    | Some v when String.equal v actual -> true
    | Some v -> fail "%s: expected %s, got %s" key v actual; false
    | None -> fail "%s: no committed value (got %s)" key actual; false

let args_key args = String.concat "," (List.map string_of_int args)
let stdout_path name args = Filename.concat dir (Printf.sprintf "stdout/%s@%s.out" name (args_key args))

(* the walk interpreter's stdout for [name] on [args]; regenerated from
   the program under [--regen] *)
let reference_stdout ~name ~args prog =
  let path = stdout_path name args in
  if !regen then begin
    let r = Slo_vm.Interp.run_program ~args prog in
    if r.exit_code <> 0 then failwith (path ^ ": reference run exited non-zero");
    write_file path r.output;
    r.output
  end
  else read_file path

(* one program run's output against its reference *)
let check_output ~what ~reference (r : Slo_vm.Interp.result) =
  if r.exit_code <> 0 then (fail "%s: exit code %d" what r.exit_code; false)
  else if not (String.equal r.output reference) then (fail "%s: stdout differs from reference" what; false)
  else true
