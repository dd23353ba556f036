open Memhog_sim

(* One escaper for every JSON writer in the repo (quotes, backslashes,
   control characters): see {!Json_str}. *)
let json_escape = Json_str.escape

(* Chrome's trace format has no notion of negative thread ids, so daemon
   streams (-1 ..) are remapped above any plausible process pid. *)
let tid_of_stream stream = if stream >= 0 then stream else 1_000_000 - stream

(* Simulated ns rendered as the format's microseconds, keeping ns
   precision in the fraction. *)
let ts_of_time time = Printf.sprintf "%.3f" (float_of_int time /. 1000.0)

(* Only strict decimal integers stay numbers ([int_of_string_opt] would
   also accept "0x1f" and "1_000", silently changing the payload). *)
let is_decimal s =
  let n = String.length s in
  let start = if n > 0 && s.[0] = '-' then 1 else 0 in
  let ok = ref (n > start) in
  for i = start to n - 1 do
    if not (s.[i] >= '0' && s.[i] <= '9') then ok := false
  done;
  !ok

let args_json args =
  String.concat ","
    (List.map
       (fun (k, v) ->
         (* numeric payloads stay numbers; everything else is a string *)
         if is_decimal v then Printf.sprintf "\"%s\":%s" (json_escape k) v
         else Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
       args)

let event_row ~time ~stream ev =
  let tid = tid_of_stream stream in
  let common = Printf.sprintf "\"pid\":0,\"tid\":%d,\"ts\":%s" tid (ts_of_time time) in
  match ev with
  | Trace.Free_depth { pages } ->
      Printf.sprintf "{\"name\":\"free_depth\",\"ph\":\"C\",%s,\"args\":{\"pages\":%d}}"
        common pages
  | Trace.Rss_sample { owner; pages } ->
      Printf.sprintf "{\"name\":\"rss:%d\",\"ph\":\"C\",%s,\"args\":{\"pages\":%d}}"
        owner common pages
  | Trace.Upper_limit_sample { owner; pages } ->
      Printf.sprintf
        "{\"name\":\"upper_limit:%d\",\"ph\":\"C\",%s,\"args\":{\"pages\":%d}}"
        owner common pages
  | Trace.Queue_depth { owner; depth } ->
      Printf.sprintf
        "{\"name\":\"queue_depth:%d\",\"ph\":\"C\",%s,\"args\":{\"depth\":%d}}"
        owner common depth
  | Trace.Phase_begin { name } ->
      Printf.sprintf "{\"name\":\"%s\",\"ph\":\"B\",%s}" (json_escape name) common
  | Trace.Phase_end { name } ->
      Printf.sprintf "{\"name\":\"%s\",\"ph\":\"E\",%s}" (json_escape name) common
  | Trace.Disk_io { disk; block; write; ns } ->
      (* the completion event spans the whole request: render it as a
         duration slice ending at the emission time *)
      Printf.sprintf
        "{\"name\":\"disk%d %s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"args\":{\"block\":%d}}"
        disk
        (if write then "write" else "read")
        tid
        (ts_of_time (time - ns))
        (ts_of_time ns) block
  | ev ->
      Printf.sprintf "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",%s,\"args\":{%s}}"
        (Trace.event_name ev) common
        (args_json (Trace.event_args ev))

(* ------------------------------------------------------------------ *)
(* Flow events: directive -> OS action -> fault/rescue                  *)
(* ------------------------------------------------------------------ *)

(* Chrome flow events ("s" start, "t" step, "f" finish) draw arrows across
   lanes.  Two chain kinds, keyed by (owner pid, vpn):

   - prefetch: Rt_prefetch_sent -> Prefetch_issued -> Prefetch_done ->
     first fault on the page (validation = the hidden-latency payoff,
     hard = the prefetch lost), or Prefetch_dropped/Raced;
   - release: Rt_release_sent -> Releaser_free -> Rescue / Hard_fault
     (too-early release) / Frame_reused (the free paid off), or
     Release_skipped.

   Chains whose start fell off the ring simply produce no arrows. *)
type flows = {
  mutable next_id : int;
  pf : (int * int, int) Hashtbl.t;
  rel : (int * int, int) Hashtbl.t;
}

let flow_row ~name ~ph ~id ~stream ~time =
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"flow\",\"ph\":\"%s\"%s,\"id\":%d,\"pid\":0,\"tid\":%d,\"ts\":%s}"
    name ph
    (if ph = "f" then ",\"bp\":\"e\"" else "")
    id (tid_of_stream stream) (ts_of_time time)

let flow_rows fl ~time ~stream ev =
  let start table ~key ~name =
    let id = fl.next_id in
    fl.next_id <- id + 1;
    Hashtbl.replace table key id;
    [ flow_row ~name ~ph:"s" ~id ~stream ~time ]
  in
  let step table ~key ~name =
    match Hashtbl.find_opt table key with
    | Some id -> [ flow_row ~name ~ph:"t" ~id ~stream ~time ]
    | None -> []
  in
  let finish table ~key ~name =
    match Hashtbl.find_opt table key with
    | Some id ->
        Hashtbl.remove table key;
        [ flow_row ~name ~ph:"f" ~id ~stream ~time ]
    | None -> []
  in
  let pf_name site = Printf.sprintf "pf-site%d" site in
  let rel_name site = Printf.sprintf "rel-site%d" site in
  match ev with
  | Trace.Rt_prefetch_sent { vpn; site } when stream >= 0 ->
      start fl.pf ~key:(stream, vpn) ~name:(pf_name site)
  | Trace.Prefetch_issued { vpn; site } ->
      step fl.pf ~key:(stream, vpn) ~name:(pf_name site)
  | Trace.Prefetch_done { vpn; site; _ } ->
      step fl.pf ~key:(stream, vpn) ~name:(pf_name site)
  | Trace.Prefetch_dropped { vpn; site } | Trace.Prefetch_raced { vpn; site }
    ->
      finish fl.pf ~key:(stream, vpn) ~name:(pf_name site)
  | Trace.Rt_release_sent { vpn; site } when stream >= 0 ->
      start fl.rel ~key:(stream, vpn) ~name:(rel_name site)
  | Trace.Releaser_free { vpn; owner; site } ->
      step fl.rel ~key:(owner, vpn) ~name:(rel_name site)
  | Trace.Release_skipped { vpn; owner; site } ->
      finish fl.rel ~key:(owner, vpn) ~name:(rel_name site)
  | Trace.Rescue { vpn; site; _ } when stream >= 0 ->
      finish fl.rel ~key:(stream, vpn) ~name:(rel_name site)
  | Trace.Frame_reused { vpn; owner } ->
      finish fl.rel ~key:(owner, vpn) ~name:(rel_name Trace.no_site)
  | Trace.Validation_fault { vpn } | Trace.Soft_fault { vpn }
    when stream >= 0 ->
      finish fl.pf ~key:(stream, vpn) ~name:(pf_name Trace.no_site)
  | Trace.Hard_fault { vpn } when stream >= 0 ->
      (* a hard fault terminates whichever chains are open on the page:
         an in-flight prefetch it beat, a release it refaulted *)
      finish fl.pf ~key:(stream, vpn) ~name:(pf_name Trace.no_site)
      @ finish fl.rel ~key:(stream, vpn) ~name:(rel_name Trace.no_site)
  | _ -> []

let to_chrome_json trace =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let add row =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf row
  in
  add "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"memhog-sim\"}}";
  List.iter
    (fun stream ->
      match Trace.stream_name trace stream with
      | None -> ()
      | Some name ->
          add
            (Printf.sprintf
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
               (tid_of_stream stream) (json_escape name)))
    (Trace.stream_ids trace);
  let fl = { next_id = 1; pf = Hashtbl.create 256; rel = Hashtbl.create 256 } in
  Trace.iter trace (fun ~time ~stream ev ->
      add (event_row ~time ~stream ev);
      List.iter add (flow_rows fl ~time ~stream ev));
  Buffer.add_string buf
    (Printf.sprintf "],\"metadata\":{\"dropped_events\":%d}}\n"
       (Trace.dropped trace));
  Buffer.contents buf

let write_file ~path content =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)

let write_chrome_json trace ~path = write_file ~path (to_chrome_json trace)

(* ------------------------------------------------------------------ *)
(* Per-request blame spans                                             *)
(* ------------------------------------------------------------------ *)

(* A single request's critical path as its own Chrome-trace document:
   lane 0 holds the request slice itself, lane 1 its additive component
   decomposition (the five blame components telescope across the response
   interval, so they render as a gapless strip under the parent), lane 2
   the recorded sub-intervals (demand arm-queue waits — bypasses marked —
   arm-held service and in-transit waits), which overlap the index/value
   stalls they explain. *)
let blame_span_to_chrome_json (sp : Reqtrace.span) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let add row =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf row
  in
  add
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"memhog blame\"}}";
  List.iter
    (fun (tid, name) ->
      add
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           tid name))
    [ (0, "request"); (1, "blame components"); (2, "disk / transit") ];
  let slice ~tid ~name ~start ~dur args =
    if dur > 0 then
      add
        (Printf.sprintf
           "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"dur\":%s%s}"
           (json_escape name) tid (ts_of_time start) (ts_of_time dur)
           (match args with
           | [] -> ""
           | args -> Printf.sprintf ",\"args\":{%s}" (args_json args)))
  in
  slice ~tid:0
    ~name:(Printf.sprintf "req key=%d" sp.Reqtrace.sp_key)
    ~start:sp.Reqtrace.sp_arrival ~dur:sp.Reqtrace.sp_response
    [
      ("id", string_of_int sp.Reqtrace.sp_id);
      ("bypasses", string_of_int sp.Reqtrace.sp_bypasses);
      ("pf_hidden", string_of_int sp.Reqtrace.sp_pf_hidden);
      ("pf_lost", string_of_int sp.Reqtrace.sp_pf_lost);
    ];
  (* the components telescope: each starts where the previous ended *)
  let t = ref sp.Reqtrace.sp_arrival in
  List.iter
    (fun (name, dur) ->
      slice ~tid:1 ~name ~start:!t ~dur [];
      t := !t + dur)
    [
      ("queue", sp.Reqtrace.sp_queue);
      ("index", sp.Reqtrace.sp_index);
      ("value", sp.Reqtrace.sp_value);
      ("cpu wait", sp.Reqtrace.sp_cpu);
      ("compute", sp.Reqtrace.sp_compute);
    ];
  List.iter
    (fun (kind, start, dur) -> slice ~tid:2 ~name:kind ~start ~dur [])
    (Reqtrace.children sp);
  Buffer.add_string buf "],\"metadata\":{}}\n";
  Buffer.contents buf

let write_blame_span sp ~path = write_file ~path (blame_span_to_chrome_json sp)

let write_telemetry tl ~dir =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  write_file ~path:(Filename.concat dir "openmetrics.txt")
    (Telemetry.to_openmetrics tl);
  write_file ~path:(Filename.concat dir "series.csv") (Telemetry.to_csv tl);
  write_file ~path:(Filename.concat dir "alerts.csv") (Telemetry.alerts_csv tl)

let summary trace =
  let rows =
    List.map
      (fun (name, n) -> [ name; Report.count n ])
      (Trace.counts trace)
  in
  Format.asprintf "@[<v>%t@]" (fun fmt ->
      Report.table
        ~title:
          (Printf.sprintf "trace: %d events retained, %d dropped"
             (Trace.length trace) (Trace.dropped trace))
        ~header:[ "event"; "count" ] ~rows fmt ())
