(* Hand-rolled JSON: the repo deliberately keeps its dependency set to the
   toolchain basics, and the writer must be canonical anyway (fixed key
   order, fixed number formatting) so the zero-tolerance regression gate
   can demand byte-identical files. *)

type json =
  | Null
  | Bool of bool
  | Num of float * string
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let num_of_int i = Num (float_of_int i, string_of_int i)

let float_lexeme f =
  if not (Float.is_finite f) then "0.0"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.9g" f

let num_of_float f =
  let f = if Float.is_finite f then f else 0.0 in
  Num (f, float_lexeme f)

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let escape_string = Json_str.escape
let add_escaped = Json_str.add_escaped

let is_scalar = function
  | Null | Bool _ | Num _ | Str _ -> true
  | Arr _ | Obj _ -> false

(* Arrays whose elements are scalars (or scalar-only arrays, like histogram
   buckets) print on one line; objects and mixed arrays go multi-line. *)
let is_compact = function
  | v when is_scalar v -> true
  | Arr items -> List.for_all is_scalar items
  | _ -> false

let rec write buf indent v =
  let pad n = Buffer.add_string buf (String.make n ' ') in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num (_, lex) -> Buffer.add_string buf lex
  | Str s -> add_escaped buf s
  | Arr [] -> Buffer.add_string buf "[]"
  | Arr items when List.for_all is_compact items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ", ";
          write buf indent item)
        items;
      Buffer.add_char buf ']'
  | Arr items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (indent + 2);
          write buf (indent + 2) item)
        items;
      Buffer.add_char buf '\n';
      pad indent;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj kvs ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (indent + 2);
          add_escaped buf k;
          Buffer.add_string buf ": ";
          write buf (indent + 2) v)
        kvs;
      Buffer.add_char buf '\n';
      pad indent;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 4096 in
  write buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

exception Parse_error of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'; incr pos
          | '\\' -> Buffer.add_char buf '\\'; incr pos
          | '/' -> Buffer.add_char buf '/'; incr pos
          | 'b' -> Buffer.add_char buf '\b'; incr pos
          | 'f' -> Buffer.add_char buf '\012'; incr pos
          | 'n' -> Buffer.add_char buf '\n'; incr pos
          | 'r' -> Buffer.add_char buf '\r'; incr pos
          | 't' -> Buffer.add_char buf '\t'; incr pos
          | 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              let hex = String.sub s (!pos + 1) 4 in
              let is_hex = function
                | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                | _ -> false
              in
              if not (String.for_all is_hex hex) then fail "bad \\u escape";
              let cp = int_of_string ("0x" ^ hex) in
              (* UTF-8 encode the code point (no surrogate-pair joining:
                 the writer never emits non-BMP characters). *)
              if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
              else if cp < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
                Buffer.add_char buf
                  (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
              end;
              pos := !pos + 5
          | c -> fail (Printf.sprintf "bad escape \\%C" c));
          go ()
      | c when c < ' ' -> fail "unescaped control character in string"
      | c -> Buffer.add_char buf c; incr pos; go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let digits () =
      let d0 = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do incr pos done;
      if !pos = d0 then fail "expected digit"
    in
    if peek () = Some '-' then incr pos;
    let int_start = !pos in
    digits ();
    if s.[int_start] = '0' && !pos - int_start > 1 then fail "leading zero";
    if peek () = Some '.' then begin incr pos; digits () end;
    (match peek () with
    | Some ('e' | 'E') ->
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits ()
    | _ -> ());
    let lex = String.sub s start (!pos - start) in
    Num (float_of_string lex, lex)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin incr pos; Obj [] end
        else begin
          let kvs = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            kvs := (k, v) :: !kvs;
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; members ()
            | Some '}' -> incr pos
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !kvs)
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin incr pos; Arr [] end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; elements ()
            | Some ']' -> incr pos
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          Arr (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" at msg)

(* ------------------------------------------------------------------ *)
(* Metrics document                                                    *)
(* ------------------------------------------------------------------ *)

let schema = "memhog-metrics"

(* The version of the document {!Metrics} writes; its history is kept
   beside the encoders. *)
let schema_version = 7

let header =
  [ ("schema", Str schema); ("schema_version", num_of_int schema_version) ]

let write_json ~path j =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_string j))

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let parse_file ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text ->
      Result.map_error (Printf.sprintf "%s: %s" path) (parse text)

let load_file ~path =
  match parse_file ~path with
  | Error e -> Error e
  | Ok j -> (
      (* The version is compared as a lexeme: 7.9 or 7e0 is not 7. *)
      let version = string_of_int schema_version in
      match (member "schema" j, member "schema_version" j) with
      | Some (Str s), Some (Num (_, v)) when s = schema && v = version -> Ok j
      | Some (Str s), _ when s <> schema ->
          Error (Printf.sprintf "%s: not a %s file" path schema)
      | _, Some (Num (_, v)) ->
          Error (Printf.sprintf "%s: schema_version %s, expected %s" path v version)
      | _ -> Error (Printf.sprintf "%s: missing schema header" path))

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

type diff = {
  d_path : string;
  d_expected : string;
  d_got : string;
  d_reason : string;
}

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Num _ -> "number"
  | Str _ -> "string"
  | Arr _ -> "array"
  | Obj _ -> "object"

let compare_json ~tolerance a b =
  if not (Float.is_finite tolerance && tolerance >= 0.0) then
    invalid_arg
      (Printf.sprintf "Metrics_io.compare_json: tolerance %g is not a finite, non-negative percentage"
         tolerance);
  let diffs = ref [] in
  let report path ~expected ~got reason =
    diffs :=
      { d_path = path; d_expected = expected; d_got = got; d_reason = reason }
      :: !diffs
  in
  let rec go path a b =
    match (a, b) with
    | Null, Null -> ()
    | Bool x, Bool y ->
        if x <> y then
          report path ~expected:(string_of_bool x) ~got:(string_of_bool y)
            "boolean changed"
    | Str x, Str y ->
        if x <> y then
          report path
            ~expected:(Printf.sprintf "%S" x)
            ~got:(Printf.sprintf "%S" y)
            "string changed"
    | Num (x, lx), Num (y, ly) ->
        if tolerance <= 0.0 then begin
          if lx <> ly then
            report path ~expected:lx ~got:ly "lexeme differs (tolerance 0%)"
        end
        else if x <> y then begin
          let denom = Float.max (Float.abs x) (Float.abs y) in
          let pct = Float.abs (x -. y) /. denom *. 100.0 in
          if pct > tolerance then
            report path ~expected:lx ~got:ly
              (Printf.sprintf "relative drift %.3f%% exceeds tolerance %.3f%%"
                 pct tolerance)
        end
    | Arr xs, Arr ys ->
        let lx = List.length xs and ly = List.length ys in
        if lx <> ly then
          report path
            ~expected:(Printf.sprintf "%d elements" lx)
            ~got:(Printf.sprintf "%d elements" ly)
            "array length changed"
        else
          List.iteri
            (fun i (x, y) -> go (Printf.sprintf "%s[%d]" path i) x y)
            (List.combine xs ys)
    | Obj xs, Obj ys ->
        let join p k = if p = "" then k else p ^ "." ^ k in
        List.iter
          (fun (k, x) ->
            match List.assoc_opt k ys with
            | Some y -> go (join path k) x y
            | None ->
                report (join path k) ~expected:(type_name x) ~got:"absent"
                  "missing in current")
          xs;
        List.iter
          (fun (k, y) ->
            if List.assoc_opt k xs = None then
              report (join path k) ~expected:"absent" ~got:(type_name y)
                "not in baseline")
          ys
    | x, y ->
        report path ~expected:(type_name x) ~got:(type_name y) "type changed"
  in
  go "" a b;
  List.rev !diffs

let pp_diffs ?(limit = 8) fmt diffs =
  let total = List.length diffs in
  let shown = if limit <= 0 then diffs else List.filteri (fun i _ -> i < limit) diffs in
  List.iter
    (fun d ->
      Format.fprintf fmt "  %s@,    expected %s@,    got      %s  (%s)@,"
        d.d_path d.d_expected d.d_got d.d_reason)
    shown;
  let rest = total - List.length shown in
  if rest > 0 then Format.fprintf fmt "  ... and %d more mismatch(es)@," rest
