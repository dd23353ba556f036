open Memhog_sim
module Os = Memhog_vm.Os
module As = Memhog_vm.Address_space
module Ir = Memhog_compiler.Ir
module Pir = Memhog_compiler.Pir
module Runtime = Memhog_runtime.Runtime

type stream = {
  sr_rng : Rng.t;
  mutable sr_pos : int;          (* next touch position *)
  sr_ring : int array;           (* pre-drawn page offsets *)
  mutable sr_drawn : int;        (* positions drawn so far *)
}

(* An array's segment, resolved once from its name. *)
type range = {
  base_vpn : int;
  npages : int;
  elem_bytes : int;
  seg_elems : int;  (* elements the segment holds *)
}

(* What a page walk does with each page it names. *)
type action =
  | Touch of bool  (* write? *)
  | Prefetch of int option  (* directive site, preallocated for [?site] *)
  | Release of { priority : int; tag : int }

(* A PIR statement with every name resolved: arrays to their segments,
   indirect references to their streams, procedures to their index in
   [procs].  Built once by [create]; executing it makes no table lookup. *)
type node =
  | N_seq of node array
  | N_loop of { slot : int; lo : Pir.rt; hi : Pir.rt; step : int; body : node }
  | N_pages of {
      range : range;
      first : Pir.rt;
      count : Pir.rt;
      stride : Pir.rt;
      action : action;
    }
  | N_compute of Pir.rt
  | N_indirect of {
      range : range;
      stream : stream;
      count : Pir.rt;
      touch : action;
      lookahead : int;
      prefetch : bool;
    }
  | N_call of {
      proc : int;
      slots : int array;
      binds : Pir.rt array;
      values : int array;  (* scratch: binds evaluated in the caller *)
    }

type t = {
  os : Os.t;
  asp : As.t;
  rt : Runtime.t;
  frame : Pir.frame;
  main : node;
  procs : node array;
  page_bytes : int;
  mutable touches : int;
}

let asp t = t.asp
let runtime t = t.rt
let touched_pages t = t.touches

(* ------------------------------------------------------------------ *)
(* Indirect streams                                                    *)
(* ------------------------------------------------------------------ *)

let ring_size = 1024

let new_stream ~seed id =
  {
    sr_rng = Rng.create ~seed:(seed lxor (id * 0x9E3779B9));
    sr_pos = 0;
    sr_ring = Array.make ring_size 0;
    sr_drawn = 0;
  }

(* Page offset (within the array's segment) touched at stream position
   [pos]; draws lazily, in order, so the sequence is deterministic. *)
let stream_page s ~npages pos =
  if pos - s.sr_drawn >= ring_size then
    invalid_arg "App: indirect lookahead exceeds ring size";
  while s.sr_drawn <= pos do
    s.sr_ring.(s.sr_drawn mod ring_size) <- Rng.int s.sr_rng npages;
    s.sr_drawn <- s.sr_drawn + 1
  done;
  s.sr_ring.(pos mod ring_size)

(* ------------------------------------------------------------------ *)
(* Creation: name resolution                                           *)
(* ------------------------------------------------------------------ *)

let resolve ~seed ~(prog : Pir.prog) ranges =
  let name = prog.Pir.px_name in
  let range array =
    match List.assoc_opt array ranges with
    | Some r -> r
    | None ->
        invalid_arg
          (Printf.sprintf "App: program %s references unknown array %s" name array)
  in
  let streams = Hashtbl.create 8 in
  let stream id =
    match Hashtbl.find_opt streams id with
    | Some s -> s
    | None ->
        let s = new_stream ~seed id in
        Hashtbl.replace streams id s;
        s
  in
  let proc_index proc =
    let rec go i = function
      | [] ->
          invalid_arg
            (Printf.sprintf "App: program %s calls unknown procedure %s" name proc)
      | (p, _) :: rest -> if p = proc then i else go (i + 1) rest
    in
    go 0 prog.Pir.px_procs
  in
  let pages (d : Pir.directive) action =
    N_pages
      {
        range = range d.Pir.d_array;
        first = d.Pir.d_first;
        count = d.Pir.d_count;
        stride = d.Pir.d_stride;
        action;
      }
  in
  let rec node : Pir.pstmt -> node = function
    | Pir.P_seq ss -> N_seq (Array.of_list (List.map node ss))
    | Pir.P_loop { slot; lo; hi; step; body; var = _ } ->
        N_loop { slot; lo; hi; step; body = node body }
    | Pir.P_touch { array; first; count; stride; write } ->
        N_pages { range = range array; first; count; stride; action = Touch write }
    | Pir.P_compute { ns } -> N_compute ns
    | Pir.P_prefetch d -> pages d (Prefetch (Some d.Pir.d_tag))
    | Pir.P_release { dir = d; priority } ->
        pages d (Release { priority; tag = d.Pir.d_tag })
    | Pir.P_indirect { array; count; write; lookahead; prefetch; stream = id } ->
        N_indirect
          {
            range = range array;
            stream = stream id;
            count;
            touch = Touch write;
            lookahead;
            prefetch;
          }
    | Pir.P_call { proc; binds } ->
        N_call
          {
            proc = proc_index proc;
            slots = Array.of_list (List.map fst binds);
            binds = Array.of_list (List.map snd binds);
            values = Array.make (List.length binds) 0;
          }
  in
  (node prog.Pir.px_main, Array.of_list (List.map (fun (_, p) -> node p) prog.Pir.px_procs))

let create ?(seed = 17) ?(runtime_policy = Runtime.Aggressive) ?release_target
    ?rt_threads ?governor ~os ~params prog =
  List.iter
    (fun p ->
      if not (List.mem_assoc p params) then
        invalid_arg
          (Printf.sprintf "App: program %s needs parameter %s" prog.Pir.px_name p))
    prog.Pir.px_inputs;
  let frame = Array.make (Array.length prog.Pir.px_slots) 0 in
  List.iter
    (fun (p, v) -> Option.iter (fun s -> frame.(s) <- v) (Pir.slot prog p))
    params;
  let asp = Os.new_process os ~name:prog.Pir.px_name in
  let page_bytes = (Os.config os).Memhog_vm.Config.page_bytes in
  let env = Ir.env_of_list params in
  let ranges =
    List.map
      (fun (a : Ir.array_decl) ->
        let elems = Ir.eval_bound env a.Ir.a_size_elems in
        let bytes = elems * a.Ir.a_elem_bytes in
        let seg =
          Os.map_segment os asp ~name:a.Ir.a_name ~bytes ~on_swap:a.Ir.a_on_swap
        in
        Os.attach_paging_directed os asp seg;
        ( a.Ir.a_name,
          {
            base_vpn = seg.As.base_vpn;
            npages = seg.As.npages;
            elem_bytes = a.Ir.a_elem_bytes;
            seg_elems = seg.As.npages * page_bytes / a.Ir.a_elem_bytes;
          } ))
      prog.Pir.px_arrays
  in
  let main, procs = resolve ~seed ~prog ranges in
  let rt =
    Runtime.create ?release_target ?nthreads:rt_threads ?governor ~os ~asp
      ~policy:runtime_policy ()
  in
  { os; asp; rt; frame; main; procs; page_bytes; touches = 0 }

(* ------------------------------------------------------------------ *)
(* Page expansion                                                      *)
(* ------------------------------------------------------------------ *)

let act t action vpn =
  match action with
  | Touch write ->
      t.touches <- t.touches + 1;
      ignore (Os.touch t.os t.asp ~vpn ~write)
  | Prefetch site -> Runtime.prefetch_page ?site t.rt ~vpn
  | Release { priority; tag } -> Runtime.release_page t.rt ~vpn ~priority ~tag

let clamp r e = Int.max 0 (Int.min (r.seg_elems - 1) e)

(* Apply [action] to the distinct pages covered by [count] accesses
   starting at element [first] with [stride] elements between accesses.
   Pages are reported in access order; out-of-bounds accesses are clamped
   away. *)
let iter_pages t r ~first ~count ~stride action =
  if count > 0 then begin
    let eb = r.elem_bytes and pb = t.page_bytes in
    if stride = 0 then act t action (r.base_vpn + (clamp r first * eb / pb))
    else if abs stride * eb < pb then begin
      (* dense: the accesses sweep a contiguous range; report each page *)
      let last = first + ((count - 1) * stride) in
      let plo = clamp r (Int.min first last) * eb / pb
      and phi = clamp r (Int.max first last) * eb / pb in
      if stride > 0 then
        for p = plo to phi do
          act t action (r.base_vpn + p)
        done
      else
        for p = phi downto plo do
          act t action (r.base_vpn + p)
        done
    end
    else begin
      (* sparse: each access may land on its own page *)
      let prev = ref min_int in
      for k = 0 to count - 1 do
        let e = first + (k * stride) in
        if e >= 0 && e < r.seg_elems then begin
          let p = e * eb / pb in
          if p <> !prev then begin
            prev := p;
            act t action (r.base_vpn + p)
          end
        end
      done
    end
  end

(* ------------------------------------------------------------------ *)
(* Interpretation                                                      *)
(* ------------------------------------------------------------------ *)

let compute t ns =
  if ns > 0 then begin
    let cpus = Os.cpus t.os in
    Semaphore.acquire cpus;
    Engine.delay ~cat:Account.User ns;
    Semaphore.release cpus
  end

let rec exec t node =
  let f = t.frame in
  match node with
  | N_seq ns ->
      for i = 0 to Array.length ns - 1 do
        exec t ns.(i)
      done
  | N_loop { slot; lo; hi; step; body } ->
      let old = f.(slot) in
      let h = hi f in
      let v = ref (lo f) in
      while !v < h do
        f.(slot) <- !v;
        exec t body;
        v := !v + step
      done;
      f.(slot) <- old
  | N_pages { range; first; count; stride; action } ->
      iter_pages t range ~first:(first f) ~count:(count f) ~stride:(stride f) action
  | N_compute ns -> compute t (ns f)
  | N_indirect { range; stream = s; count; touch; lookahead; prefetch } ->
      for _ = 1 to count f do
        let pos = s.sr_pos in
        s.sr_pos <- pos + 1;
        if prefetch then
          act t (Prefetch None)
            (range.base_vpn + stream_page s ~npages:range.npages (pos + lookahead));
        act t touch (range.base_vpn + stream_page s ~npages:range.npages pos)
      done
  | N_call { proc; slots; binds; values } ->
      (* every binding is evaluated in the caller's frame before any is
         made *)
      for i = 0 to Array.length binds - 1 do
        values.(i) <- binds.(i) f
      done;
      bind t proc slots values 0

(* Bind formal [i] and the rest, run the procedure, then restore each
   slot on the way out; the saved values live on the stack, so a
   procedure may re-enter itself through a nested call. *)
and bind t proc slots values i =
  if i = Array.length slots then exec t t.procs.(proc)
  else begin
    let f = t.frame and s = slots.(i) in
    let old = f.(s) in
    f.(s) <- values.(i);
    bind t proc slots values (i + 1);
    f.(s) <- old
  end

let exec_main t =
  Runtime.start t.rt;
  let obs = Os.obs t.os and stream = t.asp.As.pid in
  if Obs.recording obs then
    Obs.emit obs ~time:(Engine.now ()) ~stream
      (Trace.Phase_begin { name = "main" });
  exec t t.main;
  if Obs.recording obs then
    Obs.emit obs ~time:(Engine.now ()) ~stream
      (Trace.Phase_end { name = "main" })

let finish t =
  let obs = Os.obs t.os and stream = t.asp.As.pid in
  if Obs.recording obs then
    Obs.emit obs ~time:(Engine.now ()) ~stream
      (Trace.Phase_begin { name = "drain" });
  Runtime.drain t.rt;
  (* let the helper threads and the releaser daemon consume the final
     requests before the caller declares the run over *)
  Engine.delay ~cat:Account.Sleep (Time_ns.ms 20);
  if Obs.recording obs then
    Obs.emit obs ~time:(Engine.now ()) ~stream
      (Trace.Phase_end { name = "drain" })

let run t ~iterations =
  for _ = 1 to iterations do
    exec_main t
  done;
  finish t
