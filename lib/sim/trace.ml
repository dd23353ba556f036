type event =
  (* Lifecycle events: read by the ledger or the blame layer *)
  | Hard_fault of { vpn : int }
  | Soft_fault of { vpn : int }
  | Validation_fault of { vpn : int }
  | Zero_fill of { vpn : int }
  | Rescue of { vpn : int; for_prefetch : bool; site : int }
  | Prefetch_issued of { vpn : int; site : int }
  | Prefetch_dropped of { vpn : int; site : int }
  | Prefetch_raced of { vpn : int; site : int }
  | Prefetch_done of { vpn : int; site : int; ns : int }
  | Daemon_steal of { vpn : int; owner : int }
  | Releaser_free of { vpn : int; owner : int; site : int }
  | Release_skipped of { vpn : int; owner : int; site : int }
  | Frame_reused of { vpn : int; owner : int }
  | Rt_prefetch_sent of { vpn : int; site : int }
  | Rt_release_hint of { vpn : int; site : int; priority : int }
  | Rt_release_sent of { vpn : int; site : int }
  | Rt_release_filtered of { vpn : int; reason : string; site : int }
  | Rt_release_buffered of { vpn : int; tag : int; priority : int }
  | Rt_stale_dropped of { vpn : int; site : int }
  | Tier_demote of { page : int; tier : int; site : int }
  | Tier_fetch of { page : int; tier : int }
  | Tier_failover of { page : int; tier_from : int; tier_to : int }
  | Tier_rescue of { page : int; site : int }
  (* Timeline-only events: read by the ring alone *)
  | Daemon_invalidate of { vpn : int; owner : int }
  | Release_requested of { owner : int; count : int }
  | Writeback_complete of { vpn : int; owner : int }
  | Rt_release_issued of { count : int }
  | Rt_release_drained of { count : int }
  | Disk_io of { disk : int; block : int; write : bool; ns : int }
  | Free_depth of { pages : int }
  | Rss_sample of { owner : int; pages : int }
  | Upper_limit_sample of { owner : int; pages : int }
  | Queue_depth of { owner : int; depth : int }
  | Phase_begin of { name : string }
  | Phase_end of { name : string }
  | Chaos_disk_fault of { disk : int; block : int; attempt : int }
  | Chaos_stall of { who : string; until : int }
  | Chaos_drop_directive of { count : int }
  | Chaos_pressure of { pages : int; hold : int }
  | Chaos_pressure_end of { pages : int }
  | Governor_transition of {
      level_from : int;
      level_to : int;
      drop_pct : int;
      stale_pct : int;
    }
  | Tier_timeout of { page : int; tier : int; attempt : int }
  | Breaker_transition of { tier : int; state_from : int; state_to : int }
  | Alert_fire of { rule : string; value_ppm : int }
  | Alert_clear of { rule : string; value_ppm : int }

let no_site = -1

(* The ring is three parallel arrays rather than an array of records so that
   a retained trace costs two unboxed words per event plus the event value
   itself (most constructors carry only immediates). *)
type t = {
  times : int array;
  streams : int array;
  events : event array;
  capacity : int;
  mutable start : int;  (* index of the oldest retained event *)
  mutable len : int;
  mutable dropped : int;
  names : (int, string) Hashtbl.t;
}

let dummy_event = Free_depth { pages = 0 }

let create ?(capacity = 262_144) () =
  let capacity = max capacity 0 in
  {
    times = Array.make (max capacity 1) 0;
    streams = Array.make (max capacity 1) 0;
    events = Array.make (max capacity 1) dummy_event;
    capacity;
    start = 0;
    len = 0;
    dropped = 0;
    names = Hashtbl.create 16;
  }

let null = create ~capacity:0 ()
let enabled t = t.capacity > 0
let length t = t.len
let dropped t = t.dropped

let emit t ~time ~stream ev =
  if t.capacity > 0 then begin
    let i =
      if t.len < t.capacity then begin
        let i = (t.start + t.len) mod t.capacity in
        t.len <- t.len + 1;
        i
      end
      else begin
        (* Full: overwrite the oldest slot and advance the start. *)
        let i = t.start in
        t.start <- (t.start + 1) mod t.capacity;
        t.dropped <- t.dropped + 1;
        i
      end
    in
    t.times.(i) <- time;
    t.streams.(i) <- stream;
    t.events.(i) <- ev
  end

let set_stream_name t stream name = Hashtbl.replace t.names stream name
let stream_name t stream = Hashtbl.find_opt t.names stream

let stream_ids t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.names [] |> List.sort compare

let iter t f =
  for j = 0 to t.len - 1 do
    let i = (t.start + j) mod t.capacity in
    f ~time:t.times.(i) ~stream:t.streams.(i) t.events.(i)
  done

let clear t =
  t.start <- 0;
  t.len <- 0;
  t.dropped <- 0

let event_name = function
  | Hard_fault _ -> "hard_fault"
  | Soft_fault _ -> "soft_fault"
  | Validation_fault _ -> "validation_fault"
  | Zero_fill _ -> "zero_fill"
  | Rescue _ -> "rescue"
  | Prefetch_issued _ -> "prefetch_issued"
  | Prefetch_dropped _ -> "prefetch_dropped"
  | Prefetch_raced _ -> "prefetch_raced"
  | Prefetch_done _ -> "prefetch_done"
  | Daemon_steal _ -> "daemon_steal"
  | Daemon_invalidate _ -> "daemon_invalidate"
  | Releaser_free _ -> "releaser_free"
  | Release_requested _ -> "release_requested"
  | Release_skipped _ -> "release_skipped"
  | Writeback_complete _ -> "writeback_complete"
  | Frame_reused _ -> "frame_reused"
  | Rt_prefetch_sent _ -> "rt_prefetch_sent"
  | Rt_release_hint _ -> "rt_release_hint"
  | Rt_release_sent _ -> "rt_release_sent"
  | Rt_release_filtered _ -> "rt_release_filtered"
  | Rt_release_buffered _ -> "rt_release_buffered"
  | Rt_release_issued _ -> "rt_release_issued"
  | Rt_release_drained _ -> "rt_release_drained"
  | Rt_stale_dropped _ -> "rt_stale_dropped"
  | Disk_io _ -> "disk_io"
  | Free_depth _ -> "free_depth"
  | Rss_sample _ -> "rss_sample"
  | Upper_limit_sample _ -> "upper_limit_sample"
  | Queue_depth _ -> "queue_depth"
  | Phase_begin _ -> "phase_begin"
  | Phase_end _ -> "phase_end"
  | Chaos_disk_fault _ -> "chaos_disk_fault"
  | Chaos_stall _ -> "chaos_stall"
  | Chaos_drop_directive _ -> "chaos_drop_directive"
  | Chaos_pressure _ -> "chaos_pressure"
  | Chaos_pressure_end _ -> "chaos_pressure_end"
  | Governor_transition _ -> "governor_transition"
  | Tier_demote _ -> "tier_demote"
  | Tier_fetch _ -> "tier_fetch"
  | Tier_timeout _ -> "tier_timeout"
  | Tier_failover _ -> "tier_failover"
  | Tier_rescue _ -> "tier_rescue"
  | Breaker_transition _ -> "breaker_transition"
  | Alert_fire _ -> "alert_fire"
  | Alert_clear _ -> "alert_clear"

let event_args = function
  | Hard_fault { vpn }
  | Soft_fault { vpn }
  | Validation_fault { vpn }
  | Zero_fill { vpn } ->
      [ ("vpn", string_of_int vpn) ]
  | Rescue { vpn; for_prefetch; site } ->
      [
        ("vpn", string_of_int vpn);
        ("for_prefetch", string_of_bool for_prefetch);
        ("site", string_of_int site);
      ]
  | Prefetch_issued { vpn; site }
  | Prefetch_dropped { vpn; site }
  | Prefetch_raced { vpn; site }
  | Rt_prefetch_sent { vpn; site }
  | Rt_release_sent { vpn; site }
  | Rt_stale_dropped { vpn; site } ->
      [ ("vpn", string_of_int vpn); ("site", string_of_int site) ]
  | Prefetch_done { vpn; site; ns } ->
      [
        ("vpn", string_of_int vpn);
        ("site", string_of_int site);
        ("ns", string_of_int ns);
      ]
  | Daemon_steal { vpn; owner }
  | Daemon_invalidate { vpn; owner }
  | Writeback_complete { vpn; owner }
  | Frame_reused { vpn; owner } ->
      [ ("vpn", string_of_int vpn); ("owner", string_of_int owner) ]
  | Releaser_free { vpn; owner; site } | Release_skipped { vpn; owner; site } ->
      [
        ("vpn", string_of_int vpn);
        ("owner", string_of_int owner);
        ("site", string_of_int site);
      ]
  | Release_requested { owner; count } ->
      [ ("owner", string_of_int owner); ("count", string_of_int count) ]
  | Rt_release_hint { vpn; site; priority } ->
      [
        ("vpn", string_of_int vpn);
        ("site", string_of_int site);
        ("priority", string_of_int priority);
      ]
  | Rt_release_filtered { vpn; reason; site } ->
      [
        ("vpn", string_of_int vpn);
        ("reason", reason);
        ("site", string_of_int site);
      ]
  | Rt_release_buffered { vpn; tag; priority } ->
      [
        ("vpn", string_of_int vpn);
        ("tag", string_of_int tag);
        ("priority", string_of_int priority);
      ]
  | Rt_release_issued { count } | Rt_release_drained { count } ->
      [ ("count", string_of_int count) ]
  | Disk_io { disk; block; write; ns } ->
      [
        ("disk", string_of_int disk);
        ("block", string_of_int block);
        ("write", string_of_bool write);
        ("ns", string_of_int ns);
      ]
  | Free_depth { pages } -> [ ("pages", string_of_int pages) ]
  | Rss_sample { owner; pages } | Upper_limit_sample { owner; pages } ->
      [ ("owner", string_of_int owner); ("pages", string_of_int pages) ]
  | Queue_depth { owner; depth } ->
      [ ("owner", string_of_int owner); ("depth", string_of_int depth) ]
  | Phase_begin { name } | Phase_end { name } -> [ ("name", name) ]
  | Chaos_disk_fault { disk; block; attempt } ->
      [
        ("disk", string_of_int disk);
        ("block", string_of_int block);
        ("attempt", string_of_int attempt);
      ]
  | Chaos_stall { who; until } -> [ ("who", who); ("until", string_of_int until) ]
  | Chaos_drop_directive { count } -> [ ("count", string_of_int count) ]
  | Chaos_pressure { pages; hold } ->
      [ ("pages", string_of_int pages); ("hold", string_of_int hold) ]
  | Chaos_pressure_end { pages } -> [ ("pages", string_of_int pages) ]
  | Governor_transition { level_from; level_to; drop_pct; stale_pct } ->
      [
        ("level_from", string_of_int level_from);
        ("level_to", string_of_int level_to);
        ("drop_pct", string_of_int drop_pct);
        ("stale_pct", string_of_int stale_pct);
      ]
  | Tier_demote { page; tier; site } ->
      [
        ("page", string_of_int page);
        ("tier", string_of_int tier);
        ("site", string_of_int site);
      ]
  | Tier_fetch { page; tier } ->
      [ ("page", string_of_int page); ("tier", string_of_int tier) ]
  | Tier_timeout { page; tier; attempt } ->
      [
        ("page", string_of_int page);
        ("tier", string_of_int tier);
        ("attempt", string_of_int attempt);
      ]
  | Tier_failover { page; tier_from; tier_to } ->
      [
        ("page", string_of_int page);
        ("tier_from", string_of_int tier_from);
        ("tier_to", string_of_int tier_to);
      ]
  | Tier_rescue { page; site } ->
      [ ("page", string_of_int page); ("site", string_of_int site) ]
  | Breaker_transition { tier; state_from; state_to } ->
      [
        ("tier", string_of_int tier);
        ("state_from", string_of_int state_from);
        ("state_to", string_of_int state_to);
      ]
  | Alert_fire { rule; value_ppm } | Alert_clear { rule; value_ppm } ->
      [ ("rule", rule); ("value_ppm", string_of_int value_ppm) ]

let counts t =
  let tbl = Hashtbl.create 32 in
  iter t (fun ~time:_ ~stream:_ ev ->
      let name = event_name ev in
      let n = Option.value (Hashtbl.find_opt tbl name) ~default:0 in
      Hashtbl.replace tbl name (n + 1));
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let daemon_stream = -1
let releaser_stream = -2
let writeback_stream = -3
let kernel_stream = -4
let chaos_stream = -5
let disk_stream = -6
let tier_stream = -7
let telemetry_stream = -8
