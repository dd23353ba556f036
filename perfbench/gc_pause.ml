(* Host GC pause time, read from the runtime's own event ring (OCaml 5's
   runtime_events library).  A pause is any interval during which at least
   one runtime phase is open; nested phases are not counted twice.  The
   benchmark is single-domain, so every runtime phase stops the mutator. *)

module RE = Runtime_events

let cursor = ref None
let depth = ref 0
let opened_at = ref 0L
let pause_ns = ref 0L
let lost = ref 0

let callbacks =
  RE.Callbacks.create
    ~runtime_begin:(fun _ ts _ ->
      if !depth = 0 then opened_at := RE.Timestamp.to_int64 ts;
      incr depth)
    ~runtime_end:(fun _ ts _ ->
      if !depth > 0 then begin
        decr depth;
        if !depth = 0 then
          pause_ns :=
            Int64.add !pause_ns (Int64.sub (RE.Timestamp.to_int64 ts) !opened_at)
      end)
    ~lost_events:(fun _ n ->
      lost := !lost + n;
      depth := 0)
    ()

(* The GC alarm can fire inside a poll (the callbacks allocate), and the
   runtime refuses a nested [read_poll] on one cursor with [Failure]; the
   nested call is skipped, as the outer one reads on to the ring's end. *)
let polling = ref false

let poll () =
  match !cursor with
  | Some c when not !polling ->
      polling := true;
      Fun.protect
        ~finally:(fun () -> polling := false)
        (fun () -> ignore (RE.read_poll c callbacks None))
  | _ -> ()

(* Start collecting.  A GC alarm polls once per major cycle so the ring
   (sized by OCAMLRUNPARAM=e, see run.py) does not wrap during a long
   simulation; events it does lose are counted in [lost_events]. *)
let start () =
  RE.start ();
  cursor := Some (RE.create_cursor None);
  poll ();
  ignore (Gc.create_alarm poll)

(* Seconds of GC pause while [f] ran. *)
let measure f =
  poll ();
  let before = !pause_ns in
  let v = f () in
  poll ();
  (v, Int64.to_float (Int64.sub !pause_ns before) /. 1e9)

let lost_events () = !lost
