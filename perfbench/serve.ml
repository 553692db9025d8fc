(* serve-mixed: a [slopt serve] daemon process with one compute worker,
   driven over one pipelined connection by one caller, in a closed loop.

   One operation is what an editor with the roster open sends around an
   edit of every file: every roster source's [advise] twice, warm (the
   daemon's cache answers), all at once; then, after their replies,
   every roster source's [advise] carrying a fresh nonce comment (a
   digest miss, like an edited file), all at once, which the compute
   worker answers one after another. It is timed from its first send to
   its last reply; the cold half is most of that time.

   The daemon runs one reader and one compute worker, and the halves go
   one after the other, so that one daemon domain works at a time and
   the work handed between them is a small share of an operation: on a
   shared 2-core host, concurrent domains wait on each other's stolen
   time at every minor collection, and the time then follows the host
   instead of the daemon. *)

module P = Slo_server.Protocol
module Client = Slo_server.Client
module Suite = Slo_suite.Suite
module Json = Slo_util.Json
module D = Slo_core.Driver
module H = Slo_core.Heuristics
module W = Slo_profile.Weights
open Summary

let slopt = "_build/default/bin/slopt.exe"

let warm_per_source = 2

(* The daemon's cache grows with every cold request, so its peak RSS is
   read after a fixed number of operations, not after a fixed time in
   which a faster daemon would do more work. *)
let rss_ops = 100

(* the 300 to 700 operations of a 20 s run on a 2-core host leave 15 to
   35 samples beyond p95 *)
let tail_q = 0.95

let roster = List.map (fun (e : Suite.entry) -> (e.name, e.source)) Suite.roster

let advise_req src =
  P.Advise { src; scheme = Some "ispbo"; args = []; pool = false; deadline_ms = None }

let payload req = Json.to_string ~indent:false (P.json_of_request req)
let nonce src tag = Printf.sprintf "%s\n/* nonce %s */\n" src tag

(* the values the daemon must reply with, computed in-process the way
   the daemon computes them; only under --regen *)
let regen_expected () =
  List.iter
    (fun (name, src) ->
      let prog = D.compile ~verify:true src in
      let leg, aff = D.analyze prog ~scheme:W.ISPBO ~feedback:None in
      let decisions = H.decide prog leg aff ~scheme:W.ISPBO in
      let report =
        Slo_core.Advisor.report (Slo_core.Advisor.build prog leg aff ~decisions ~dcache:None)
      in
      ignore (Refs.expect ("serve/advise/" ^ name) (Digest.to_hex (Digest.string report))))
    roster

type kind = Warm of string | Cold of string | Stats

let check_reply kind reply =
  match (kind, reply) with
  | (Warm name | Cold name), P.R_advise { a_report; _ } ->
    Refs.expect ("serve/advise/" ^ name) (Digest.to_hex (Digest.string a_report))
  | _, P.R_error { code; message } ->
    Refs.fail "serve: %s reply: %s" (P.error_code_name code) message;
    false
  | _ ->
    Refs.fail "serve: reply of the wrong kind";
    false

(* ---------------- the daemon ---------------- *)

type daemon = { pid : int; sock : string; conn : Client.t }

(* the daemons started and not yet stopped, which a run that ends early
   still stops *)
let live : daemon list ref = ref []
let started = ref 0

let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())
        !live)

(* connect as soon as the daemon listens: the client's own retry sleeps
   20 ms between attempts, which would round every set-up time up *)
let rec connect ~deadline sock =
  match Client.connect_socket ~socket:sock () with
  | conn -> conn
  | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _) when now () < deadline ->
    Unix.sleepf 0.001;
    connect ~deadline sock

let start_daemon () =
  incr started;
  let sock = Printf.sprintf "perfbench/out/serve-%d-%d.sock" (Unix.getpid ()) !started in
  (try Sys.remove sock with Sys_error _ -> ());
  let pid =
    Unix.create_process slopt
      [| slopt; "serve"; "--socket"; sock; "--quiet"; "--jobs"; "1"; "--shards"; "1" |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let conn = connect ~deadline:(Int64.add (now ()) 30_000_000_000L) sock in
  let d = { pid; sock; conn } in
  live := d :: !live;
  d

let stop_daemon d =
  (try ignore (Client.rpc d.conn P.Shutdown) with _ -> Unix.kill d.pid Sys.sigterm);
  Client.close d.conn;
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (fun l -> l.pid <> d.pid) !live;
  try Sys.remove d.sock with Sys_error _ -> ()

(* a fresh daemon with an empty cache, warmed with every roster advise *)
let setup () =
  let d = start_daemon () in
  List.iter
    (fun (name, src) ->
      match Client.rpc d.conn (advise_req src) with
      | reply -> ignore (check_reply (Warm name) reply)
      | exception e -> Refs.fail "serve warm-up %s: %s" name (Printexc.to_string e))
    roster;
  d

(* ---------------- batches ---------------- *)

let stats d =
  match Client.rpc d.conn P.Stats with
  | P.R_stats s -> s
  | _ -> failwith "serve: stats request failed"

let next_id = ref 0

(* Send a batch at once and collect its replies, matched by id, as
   (kind, payload): decoding and checking wait until the batch is timed. *)
let exchange d batch =
  let n = Array.length batch in
  let base = !next_id in
  next_id := !next_id + n;
  let t0 = now () in
  Array.iteri (fun i (_, p) -> Client.send_raw_noflush d.conn (P.inject_id ~id:(base + i) p)) batch;
  Client.flush_out d.conn;
  List.init n (fun _ ->
      let raw = Client.recv_raw d.conn in
      match P.strip_id raw with
      | None -> failwith "serve: reply without an id"
      | Some (id, rest) ->
        let kind = fst batch.(id - base) in
        Trace.record ~op:id ~t0 ~t1:(now ())
          ~name:
            (match kind with
             | Warm _ -> "serve.warm_advise"
             | Cold _ -> "serve.cold_advise"
             | Stats -> "serve.stats");
        (kind, rest))

let run ~seed ~seconds ~trace =
  if !Refs.regen then regen_expected ();
  let timer, d = Workloads.start_setup ~first:5 ~dispose:stop_daemon setup in
  let warm = List.map (fun (name, src) -> (Warm name, payload (advise_req src))) roster in
  (* a warm hit is the same cached reply every time: each distinct reply
     is decoded and checked once *)
  let verdicts = Hashtbl.create 64 and queued_max = ref 0 and requests = ref 0 in
  let check (kind, rest) =
    match kind with
    | Stats ->
      (match P.reply_of_json (Json.of_string rest) with
       | Ok (P.R_stats s) -> queued_max := max !queued_max s.s_queued
       | _ -> Refs.fail "serve: bad stats reply");
      true
    | k -> (
      let key = (k, Digest.string rest) in
      match Hashtbl.find_opt verdicts key with
      | Some ok -> ok
      | None ->
        let ok =
          match P.reply_of_json (Json.of_string rest) with
          | Ok reply ->
            check_reply k reply
          | Error msg | (exception Json.Parse_error msg) ->
            Refs.fail "serve: undecodable reply: %s" msg;
            false
        in
        Hashtbl.replace verdicts key ok;
        ok)
  in
  let rng = Random.State.make [| seed |] in
  let op_lat = ref [] and attempted = ref 0 and failed = ref 0 and ops = ref 0 in
  let rss = ref None in
  let round () =
    incr ops;
    let tag = Printf.sprintf "%d-%d" seed !ops in
    let warm_half =
      Array.of_list (Workloads.shuffle rng (List.concat (List.init warm_per_source (fun _ -> warm))))
    in
    (* a traced operation sends a stats request after the cold advises,
       answered while they still queue for the worker: a backlog sample *)
    let cold_half =
      Array.of_list
        (List.map
           (fun (name, src) -> (Cold name, payload (advise_req (nonce src tag))))
           (Workloads.shuffle rng roster)
        @ if !Trace.enabled then [ (Stats, payload P.Stats) ] else [])
    in
    let replies = ref [] in
    Workloads.timed_op ~op_lat ~attempted ~failed ~what:"serve operation" (fun () ->
        let warm_replies = exchange d warm_half in
        replies := warm_replies @ exchange d cold_half;
        true);
    requests := !requests + Array.length warm_half + Array.length cold_half;
    if not (List.for_all check !replies) then incr failed;
    if !ops = rss_ops then rss := Some (peak_rss_mb (Some d.pid))
  in
  let lat, n, traced_ms, overhead = Workloads.measure_phase ~trace ~seconds ~op_lat ~timer round in
  let extra =
    if not trace then []
    else begin
      let s = stats d in
      let frac a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b) in
      [
        ("server.result_hit_frac", frac s.s_result_hits s.s_result_misses);
        ("server.ir_hit_frac", frac s.s_ir_hits s.s_ir_misses);
        ("server.service_p50_ms", s.s_latency.l_p50_ms);
        ("server.service_p99_ms", s.s_latency.l_p99_ms);
        ("server.queued_max", float_of_int !queued_max);
        ( "server.shed",
          float_of_int (Option.value ~default:0 (List.assoc_opt "overloaded" s.s_errors)) );
      ]
    end
  in
  let rss = match !rss with Some m -> m | None -> peak_rss_mb (Some d.pid) in
  stop_daemon d;
  let op_s = List.fold_left ( +. ) 0.0 lat /. 1000.0 in
  {
    Workloads.setup_s = median timer.times; lat_ms = lat; tail_q;
    (* requests, not operations, per second of operation time *)
    throughput = Some (float_of_int (List.length lat * !requests / !ops) /. op_s);
    attempted = !attempted; failed = !failed; rss_mb = Some rss; rounds_traced = n; traced_ms;
    overhead_pct = overhead; extra;
  }
