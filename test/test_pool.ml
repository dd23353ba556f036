(* Tests for the Domain worker pool and the parallel experiment matrix:
   order preservation, exception propagation, pool reuse, and the harness's
   bit-identical --jobs 1 / --jobs N guarantee. *)

open Memhog_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

exception Boom of int

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_map_preserves_order () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        (List.map f xs) (Pool.map ~jobs f xs))
    [ 1; 2; 4; 8 ]

let test_map_edge_shapes () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 Fun.id []);
  Alcotest.(check (list int)) "singleton" [ 7 ] (Pool.map ~jobs:4 Fun.id [ 7 ]);
  (* more jobs than work, and non-positive jobs clamp to serial *)
  Alcotest.(check (list int)) "jobs>n" [ 1; 2 ] (Pool.map ~jobs:64 Fun.id [ 1; 2 ]);
  Alcotest.(check (list int)) "jobs=0" [ 1; 2 ] (Pool.map ~jobs:0 Fun.id [ 1; 2 ])

let test_map_propagates_exceptions () =
  List.iter
    (fun jobs ->
      match
        Pool.map ~jobs (fun x -> if x = 13 then raise (Boom x) else x)
          (List.init 20 Fun.id)
      with
      | _ -> Alcotest.failf "jobs=%d: expected Boom" jobs
      | exception Boom 13 -> ())
    [ 1; 4 ]

let test_pool_reuse () =
  Pool.with_pool ~jobs:3 (fun pool ->
      check_int "jobs" 3 (Pool.jobs pool);
      let a = Pool.run_list pool (fun x -> x + 1) [ 1; 2; 3 ] in
      let b = Pool.run_list pool (fun x -> x * 2) [ 4; 5; 6 ] in
      Alcotest.(check (list int)) "first batch" [ 2; 3; 4 ] a;
      Alcotest.(check (list int)) "second batch" [ 8; 10; 12 ] b)

let test_shutdown_idempotent () =
  let pool = Pool.create ~jobs:2 in
  let r = Pool.run_list pool Fun.id [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "ran" [ 1; 2; 3 ] r;
  Pool.shutdown pool;
  Pool.shutdown pool

(* Worker domains must be able to run whole simulations (the engine's
   effect handlers are per-fiber, not per-process). *)
let test_simulations_in_workers () =
  let run_sim n =
    let e = Memhog_sim.Engine.create () in
    let acc = ref 0 in
    ignore
      (Memhog_sim.Engine.spawn e ~name:"worker" (fun () ->
           for i = 1 to n do
             Memhog_sim.Engine.delay ~cat:Memhog_sim.Account.User 10;
             acc := !acc + i
           done));
    Memhog_sim.Engine.run e;
    !acc
  in
  let expected = List.map run_sim [ 10; 100; 1000; 10000 ] in
  let got = Pool.map ~jobs:4 run_sim [ 10; 100; 1000; 10000 ] in
  Alcotest.(check (list int)) "simulated in parallel" expected got

(* ------------------------------------------------------------------ *)
(* Matrix determinism                                                  *)
(* ------------------------------------------------------------------ *)

(* The harness's hard guarantee: the matrix is bit-identical however many
   worker domains build it.  Results carry live registries (probe
   closures), so the comparison goes through the canonical metrics
   serialization — the same bytes the CI gates freeze. *)
let test_matrix_deterministic_across_jobs () =
  let build jobs =
    Figures.run_matrix ~machine:Machine.quick ~workloads:[ "EMBAR" ] ~jobs ()
  in
  let render m = Metrics_io.to_string (Metrics.of_matrix m) in
  let serial = build 1 in
  let parallel = build 4 in
  check_int "jobs recorded (serial)" 1 serial.Figures.mx_jobs;
  check_int "jobs recorded (parallel)" 4 parallel.Figures.mx_jobs;
  Alcotest.(check string)
    "results identical" (render serial) (render parallel);
  check_bool "alone identical" true
    (serial.Figures.mx_alone = parallel.Figures.mx_alone);
  (* one timing record per cell: 4 variants + interactive-alone *)
  check_int "cell timings" 5 (List.length parallel.Figures.mx_cells);
  check_bool "wall clock recorded" true (parallel.Figures.mx_wall_s > 0.0)

let () =
  Alcotest.run "memhog_pool"
    [
      ( "pool",
        [
          Alcotest.test_case "order" `Quick test_map_preserves_order;
          Alcotest.test_case "edge shapes" `Quick test_map_edge_shapes;
          Alcotest.test_case "exceptions" `Quick test_map_propagates_exceptions;
          Alcotest.test_case "reuse" `Quick test_pool_reuse;
          Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
          Alcotest.test_case "simulations in workers" `Quick
            test_simulations_in_workers;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "deterministic across jobs" `Slow
            test_matrix_deterministic_across_jobs;
        ] );
    ]
