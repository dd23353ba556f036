(* Observation pins.  The event ring is a pure observer: which events it
   retains, and that turning it off changes nothing any other observer
   reports, are fixed here on two quick cells.

   - (a) MATVEC/B, one pass, beside the interactive task at a 2 s sleep:
     the batch fault, prefetch, release and daemon paths.
   - (b) EMBAR/B serving at 600 rps over a far tier, telemetry on, with
     disk-fault, net-partition and pressure chaos windows: the serve,
     tier, breaker, chaos and alert paths.

   [golden] holds, per cell, the ring's [Trace.counts] and [dropped] with
   a ring large enough to drop nothing.  On a mismatch the computed table
   is written to trace_golden.actual (in the test's build directory). *)

open Memhog_sim
module E = Memhog_core.Experiment
module Machine = Memhog_core.Machine
module Metrics = Memhog_core.Metrics
module Metrics_io = Memhog_core.Metrics_io
module Workload = Memhog_workloads.Workload

let golden = "trace_golden.txt"
let actual = "trace_golden.actual"
let capacity = 1 lsl 19
let machine = Machine.quick

let batch_cell ?trace () =
  E.run
    (E.setup ~machine ~workload:(Workload.find "MATVEC") ~variant:E.B
       ~iterations:1 ~interactive_sleep:(Time_ns.sec 2) ?trace ())

let serve_chaos =
  "disk-fault@2s-4s:p=0.5,retries=3;net-partition@6s-9s;\
   pressure@10s-12s:pages=128,hold=1s"

let serve_cell ?trace () =
  E.run
    (E.setup ~machine ~workload:(Workload.find "EMBAR") ~variant:E.B
       ~serve:(E.serve_cfg ~machine ~rate_rps:600.0 ())
       ~tiers:"far" ~telemetry:true ~chaos:serve_chaos ?trace ())

let traced (cell : ?trace:Trace.t -> unit -> E.result) =
  let trace = Trace.create ~capacity () in
  let r = cell ~trace () in
  (trace, r)

let rows name trace =
  Printf.sprintf "%s dropped %d" name (Trace.dropped trace)
  :: List.map
       (fun (ev, n) -> Printf.sprintf "%s %s %d" name ev n)
       (Trace.counts trace)

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let serve_traced = lazy (traced serve_cell)

let test_golden () =
  let batch, _ = traced batch_cell in
  let serve, _ = Lazy.force serve_traced in
  let got = rows "batch" batch @ rows "serve" serve in
  let expected = read_lines golden in
  if got <> expected then begin
    Out_channel.with_open_text actual (fun oc ->
        List.iter (fun r -> output_string oc (r ^ "\n")) got);
    let differing = List.filter (fun r -> not (List.mem r expected)) got in
    Alcotest.failf "%d row(s) differ from %s (full table in %s), first: %s"
      (List.length differing) golden actual
      (match differing with r :: _ -> r | [] -> "(row count)")
  end

(* The ledger and the blame layer read their own events; whether the ring
   records the same run must not move a single figure of theirs. *)
let test_ring_invisible () =
  let _, on = Lazy.force serve_traced in
  let off = serve_cell () in
  let section key r =
    match Metrics_io.member key (Metrics.of_result r) with
    | Some j -> Metrics_io.to_string j
    | None -> Alcotest.failf "metrics document has no %S object" key
  in
  List.iter
    (fun key ->
      Alcotest.(check string) (key ^ ": ring on = ring off") (section key on)
        (section key off))
    [ "ledger"; "blame" ]

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "event counts per cell" `Quick test_golden;
          Alcotest.test_case "ledger and blame unchanged by the ring" `Quick
            test_ring_invisible;
        ] );
    ]
