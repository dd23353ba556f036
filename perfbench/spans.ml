(* In-memory span recorder for the traced run.

   A span is one timed call the benchmark makes into a layer: name, host
   start and end, and the span that was open when it started.  Spans stay
   in memory and are written out once, when the run ends. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  start_s : float;
  stop_s : float;
}

let recorded : span list ref = ref []
let open_stack : int list ref = ref []
let next_id = ref 0
let now = Unix.gettimeofday

(* Off in the end-to-end run, which measures with tracing off. *)
let enabled = ref false

let with_span name f =
  if not !enabled then f () else
  let id = !next_id in
  incr next_id;
  let parent = match !open_stack with p :: _ -> p | [] -> -1 in
  open_stack := id :: !open_stack;
  let start_s = now () in
  let finish () =
    let stop_s = now () in
    open_stack := List.tl !open_stack;
    recorded := { id; parent; name; start_s; stop_s } :: !recorded
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let all () = List.rev !recorded

(* Per name: calls, total seconds, and self seconds (total minus the time
   covered by direct children). *)
let summary () =
  let spans = all () in
  let child_time = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          ((s.stop_s -. s.start_s)
          +. Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0))
    spans;
  let by_name = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun s ->
      let total = s.stop_s -. s.start_s in
      let self =
        total -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0
      in
      match Hashtbl.find_opt by_name s.name with
      | Some (n, t, st) -> Hashtbl.replace by_name s.name (n + 1, t +. total, st +. self)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace by_name s.name (1, total, self))
    spans;
  List.rev_map (fun name -> (name, Hashtbl.find by_name name)) !order

let to_json ~env () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"env\": {";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Memhog_core.Json_str.add_escaped b k;
      Buffer.add_string b ": ";
      Memhog_core.Json_str.add_escaped b v)
    env;
  Buffer.add_string b "},\n \"spans\": [";
  let t0 = match all () with s :: _ -> s.start_s | [] -> 0.0 in
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",";
      Printf.bprintf b
        "\n  {\"id\": %d, \"parent\": %d, \"name\": \"%s\", \"start_us\": %.1f, \"end_us\": %.1f}"
        s.id s.parent (Memhog_core.Json_str.escape s.name)
        ((s.start_s -. t0) *. 1e6)
        ((s.stop_s -. t0) *. 1e6))
    (all ());
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
