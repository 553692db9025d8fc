type stats = { miss_events : int; total_latency : int }

type t = {
  sampler : Hierarchy.sampler;
  table : (int, stats) Hashtbl.t;
}

let create ?(period = 251) ?(phase = 0) () =
  if period <= 0 then invalid_arg "Pmu.create: period must be positive";
  let table = Hashtbl.create 64 in
  let on_sample iid latency =
    let prev =
      Option.value
        (Hashtbl.find_opt table iid)
        ~default:{ miss_events = 0; total_latency = 0 }
    in
    Hashtbl.replace table iid
      {
        miss_events = prev.miss_events + 1;
        total_latency = prev.total_latency + latency;
      }
  in
  { sampler = Hierarchy.sampler ~period ~phase on_sample; table }

let sampler t = t.sampler

let record t ~iid ~level ~latency ~is_float =
  let is_miss =
    match (level, is_float) with
    | Hierarchy.L1, _ -> false
    | Hierarchy.L2, false -> true   (* integer access that missed L1 *)
    | Hierarchy.L2, true -> false   (* FP access served by its first level *)
    | Hierarchy.Mem, _ -> true
  in
  if is_miss then Hierarchy.note_miss t.sampler ~iid ~latency

let events_seen t = Hierarchy.misses_seen t.sampler

let by_instr t =
  Hashtbl.fold (fun iid s acc -> (iid, s) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let stats_of t iid =
  Option.value
    (Hashtbl.find_opt t.table iid)
    ~default:{ miss_events = 0; total_latency = 0 }
