(* Host-speed probe.

   The reference host, a shared 2-vCPU Xeon VM, slows by up to 2x for
   seconds at a time while other tenants load the core's sibling thread
   and caches, and it has no hardware counters to count work instead.
   This probe is a frozen miniature of the simulator's inner loop (an
   ordered event queue of small records and a table larger than the L1
   cache) that shares no code with the simulator.  Timed next to every
   measured run, it slows in step with it, so host times are reported at
   a fixed reference speed: measured seconds x [reference_s] / probe
   seconds. *)

let now = Unix.gettimeofday

(* The probe's time on the reference host (2-vCPU Xeon VM, OCaml 5.1.1)
   when undisturbed. *)
let reference_s = 0.025

module IM = Map.Make (Int)

let table = Array.make (1 lsl 18) 0

let run () =
  let t0 = now () in
  let q = ref IM.empty and x = ref 7 in
  for i = 0 to 1023 do
    q := IM.add ((i * 1000) + i) (i, ref 0) !q
  done;
  for _ = 1 to 60_000 do
    let k, (id, hits) = IM.min_binding !q in
    q := IM.remove k !q;
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let slot = !x land (Array.length table - 1) in
    table.(slot) <- table.(slot) + id;
    incr hits;
    q := IM.add (k + 1 + ((!x land 4095) * 1024) + id) (id, hits) !q
  done;
  now () -. t0
