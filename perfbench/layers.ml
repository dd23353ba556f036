(* Isolated per-call costs of single layers, timed on the host.  Each
   probe builds its own small instance of the layer through the public
   API, so the figure is the layer's own cost, free of the workload around
   it.  Each is the fastest of a few repeats, in host nanoseconds. *)

module Engine = Memhog_sim.Engine
module Account = Memhog_sim.Account
module Heap = Memhog_sim.Heap
module Os = Memhog_vm.Os
module AS = Memhog_vm.Address_space
module Swap = Memhog_disk.Swap
module Runtime = Memhog_runtime.Runtime
module Release_buffer = Memhog_runtime.Release_buffer
module Machine = Memhog_core.Machine

let now = Unix.gettimeofday
let repeats = 5

let fastest xs = List.fold_left Float.min infinity xs

(* [probe ()] returns (host seconds, operations); the result is the
   fastest per-operation cost in ns. *)
let ns_per_op probe =
  fastest
    (List.init repeats (fun _ ->
         let secs, ops = probe () in
         secs *. 1e9 /. float_of_int (max 1 ops)))

(* Run [body] as the only simulated process of a fresh engine and return
   the host time it measured for itself. *)
let in_process ?(setup = fun (_ : Engine.t) -> ()) body =
  let engine = Engine.create () in
  setup engine;
  let result = ref (0.0, 0) in
  ignore
    (Engine.spawn engine ~name:"probe" (fun () ->
         result := body ();
         Engine.stop ()));
  Engine.run engine;
  !result

let engine_ns_per_event () =
  ns_per_op (fun () ->
      let engine = Engine.create () in
      for i = 1 to 8 do
        ignore
          (Engine.spawn engine ~name:"spin" (fun () ->
               for _ = 1 to 25_000 do
                 Engine.delay ~cat:Account.User (7 + i)
               done))
      done;
      let t0 = now () in
      Engine.run engine;
      (now () -. t0, Engine.events_executed engine))

let heap_ns_per_op () =
  let n = 100_000 in
  ns_per_op (fun () ->
      let h = Heap.create ~dummy:0 () in
      let t0 = now () in
      for i = 0 to n - 1 do
        Heap.add h ~key:(i * 7919 mod 100_003) ~seq:i i
      done;
      while Heap.pop_min h <> None do
        ()
      done;
      (now () -. t0, 2 * n))

let release_buffer_ns_per_page () =
  let n = 100_000 in
  ns_per_op (fun () ->
      let b = Release_buffer.create () in
      let t0 = now () in
      for i = 0 to n - 1 do
        let tag = i mod 97 in
        Release_buffer.add b ~tag ~priority:((tag mod 3) + 1) ~vpn:i
      done;
      while Array.length (Release_buffer.pop_lowest b ~max:100) > 0 do
        ()
      done;
      (now () -. t0, n))

let machine = Machine.paper
let page_bytes = machine.Machine.m_config.Memhog_vm.Config.page_bytes
let probe_pages = 1024

(* A fresh kernel on the paper machine with one process owning
   [probe_pages] swap-backed pages. *)
let with_process engine =
  let os =
    Os.create ~swap_config:machine.Machine.m_swap
      ~config:machine.Machine.m_config ~engine ()
  in
  let asp = Os.new_process os ~name:"probe" in
  let seg =
    Os.map_segment os asp ~name:"data" ~bytes:(probe_pages * page_bytes)
      ~on_swap:true
  in
  (os, asp, seg)

(* First touches of swap-backed pages: each is a hard fault through the
   fault handler, the swap queue and the engine.  Returns the per-touch
   cost and the number of touches that were not hard faults. *)
let touch_costs () =
  let fault = ref [] and resident = ref [] and not_hard = ref 0 in
  for _ = 1 to repeats do
    let os_ref = ref None in
    ignore
      (in_process
         ~setup:(fun e -> os_ref := Some (with_process e))
         (fun () ->
           let os, asp, seg = Option.get !os_ref in
           let base = seg.AS.base_vpn in
           let t0 = now () in
           for i = 0 to probe_pages - 1 do
             match Os.touch os asp ~vpn:(base + i) ~write:false with
             | Os.Hard -> ()
             | _ -> incr not_hard
           done;
           let t1 = now () in
           let passes = 50 in
           for _ = 1 to passes do
             for i = 0 to probe_pages - 1 do
               ignore (Os.touch os asp ~vpn:(base + i) ~write:false)
             done
           done;
           let t2 = now () in
           fault := ((t1 -. t0) *. 1e9 /. float_of_int probe_pages) :: !fault;
           resident :=
             ((t2 -. t1) *. 1e9 /. float_of_int (passes * probe_pages))
             :: !resident;
           (0.0, 0)))
  done;
  (fastest !resident, fastest !fault, !not_hard)

let swap_read_page_ns () =
  ns_per_op (fun () ->
      let swap = Swap.create ~config:machine.Machine.m_swap ~page_bytes () in
      in_process (fun () ->
          let n = 2000 in
          let t0 = now () in
          for i = 0 to n - 1 do
            Swap.read_page swap ~page:(i * 7919 mod 100_003)
          done;
          (now () -. t0, n)))

(* Prefetch hints for pages that are already resident: the run-time
   layer's filtered path.  Returns the per-call cost and how many calls
   the filter did not drop. *)
let prefetch_page_costs () =
  let unfiltered = ref 0 in
  let cost =
    ns_per_op (fun () ->
        let os_ref = ref None in
        in_process
          ~setup:(fun e -> os_ref := Some (with_process e))
          (fun () ->
            let os, asp, seg = Option.get !os_ref in
            Os.attach_paging_directed os asp seg;
            let base = seg.AS.base_vpn in
            for i = 0 to probe_pages - 1 do
              ignore (Os.touch os asp ~vpn:(base + i) ~write:false)
            done;
            let rt = Runtime.create ~os ~asp ~policy:Runtime.Buffered () in
            let passes = 20 in
            let t0 = now () in
            for _ = 1 to passes do
              for i = 0 to probe_pages - 1 do
                Runtime.prefetch_page rt ~vpn:(base + i)
              done
            done;
            let dt = now () -. t0 in
            let st = Runtime.stats rt in
            unfiltered :=
              !unfiltered + st.Runtime.rt_prefetch_requests
              - st.Runtime.rt_prefetch_filtered;
            (dt, passes * probe_pages)))
  in
  (cost, !unfiltered)
