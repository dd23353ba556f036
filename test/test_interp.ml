(* Golden table for the PIR interpreter: every batch workload in every
   variant, one iteration with the app alone, on the quick machine's disks
   with a quarter of its memory (1/32 of Table 1) so the whole table runs
   in a few seconds.  Each row pins the work the interpreter drives —
   engine events, page touches, hard/soft/validation faults, prefetch and
   release requests seen by the run-time layer, and the simulated elapsed
   time — so any change to name resolution, page enumeration, procedure
   calls, opaque strides or indirect streams shows up as a differing row.

   On a mismatch the whole table as computed is written to
   interp_golden.actual (in the test's build directory) so the difference
   can be inspected, or adopted on purpose by copying it over
   test/interp_golden.txt. *)

open Memhog_sim
module Machine = Memhog_core.Machine
module Workload = Memhog_workloads.Workload
module Compile = Memhog_compiler.Compile
module Pir = Memhog_compiler.Pir
module Runtime = Memhog_runtime.Runtime
module App = Memhog_exec.App
module As = Memhog_vm.Address_space
module VS = Memhog_vm.Vm_stats

let machine =
  {
    Machine.quick with
    Machine.m_name = "1/32 scale";
    m_config = Memhog_vm.Config.scaled ~factor:32 Memhog_vm.Config.default;
  }

let golden = "interp_golden.txt"
let actual = "interp_golden.actual"
let batch = [ "BUK"; "CGM"; "EMBAR"; "FFTPDE"; "MATVEC"; "MGRID" ]

(* letter, compiled variant, run-time policy *)
let variants =
  [
    ("O", Pir.V_original, Runtime.Aggressive);
    ("P", Pir.V_prefetch, Runtime.Aggressive);
    ("R", Pir.V_release, Runtime.Aggressive);
    ("B", Pir.V_release, Runtime.Buffered);
  ]

let row name (letter, variant, policy) =
  let engine = Engine.create ~max_time:(Time_ns.sec 7200) () in
  let os =
    Memhog_vm.Os.create ~swap_config:machine.Machine.m_swap
      ~config:machine.Machine.m_config ~engine ()
  in
  let prog_ir, params =
    (Workload.find name).Workload.w_make
      ~mem_bytes:(Machine.mem_bytes machine)
      ~page_bytes:machine.Machine.m_config.Memhog_vm.Config.page_bytes
  in
  let prog =
    Compile.compile ~target:(Machine.compiler_target machine) ~variant prog_ir
  in
  let app =
    App.create ~seed:machine.Machine.m_seed ~runtime_policy:policy ~os ~params
      prog
  in
  let elapsed = ref 0 in
  ignore
    (Engine.spawn engine ~name:"hog" (fun () ->
         let start = Engine.now () in
         App.run app ~iterations:1;
         elapsed := Engine.now () - start;
         Engine.stop ()));
  Engine.run engine;
  (match Engine.crashes engine with
  | [] -> ()
  | (p, e) :: _ ->
      Alcotest.failf "%s/%s: %s crashed: %s" name letter p (Printexc.to_string e));
  let st = (App.asp app).As.stats in
  let rt = Runtime.stats (App.runtime app) in
  Printf.sprintf
    "%s %s events=%d touches=%d hard=%d soft=%d valid=%d prefetch_req=%d \
     release_req=%d elapsed_ns=%d"
    name letter (Engine.events_executed engine) (App.touched_pages app)
    st.VS.hard_faults st.VS.soft_faults st.VS.validation_faults
    rt.Runtime.rt_prefetch_requests rt.Runtime.rt_release_requests !elapsed

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_golden () =
  let rows = List.concat_map (fun w -> List.map (row w) variants) batch in
  let expected = read_lines golden in
  if rows <> expected then begin
    Out_channel.with_open_text actual (fun oc ->
        List.iter (fun r -> output_string oc (r ^ "\n")) rows);
    let differing =
      List.filter (fun r -> not (List.mem r expected)) rows
    in
    Alcotest.failf "%d row(s) differ from %s (full table in %s), first: %s"
      (List.length differing) golden actual
      (match differing with r :: _ -> r | [] -> "(row count)")
  end

let () =
  Alcotest.run "interp"
    [ ("golden", [ Alcotest.test_case "batch workloads x O/P/R/B" `Quick test_golden ]) ]
