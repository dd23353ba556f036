(** The metrics document's format: the JSON value, its canonical writer,
    a strict parser, the schema-checked loader and the structural compare.
    What goes into the document is {!Metrics}' business; this module
    knows no metric key.

    The JSON writer is canonical: fixed key order, fixed number formatting,
    no locale or wall-clock dependence — two equal values produce
    byte-identical files, which is what lets the CI regression gate run
    [compare --tolerance 0] against a committed baseline.

    The parser keeps each number's raw lexeme, so a zero-tolerance compare
    can demand textual equality rather than float equality. *)

(** {1 JSON} *)

type json =
  | Null
  | Bool of bool
  | Num of float * string  (** parsed value and the raw lexeme *)
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val num_of_int : int -> json
val num_of_float : float -> json

val escape_string : string -> string
(** JSON string-body escaping (no surrounding quotes): {!Json_str.escape},
    the single escaper shared by this writer and {!Trace_export}. *)

val to_string : json -> string
(** Canonical rendering: 2-space indent, keys in the order given. *)

val parse : string -> (json, string) result
(** Strict JSON parser (objects, arrays, strings with escapes, numbers,
    [true]/[false]/[null]); the error string includes an offset.  Strict as
    RFC 8259 says: [\u] takes exactly four hex digits, numbers have no
    leading zeros, and strings hold no raw character below 0x20. *)

val parse_file : path:string -> (json, string) result
(** {!parse} a whole file; the error names the path. *)

(** {1 Metrics files} *)

val header : (string * json) list
(** The document's leading members:
    [("schema", "memhog-metrics"); ("schema_version", 7)]. *)

val member : string -> json -> json option
(** An object's member; [None] for a missing key or a non-object. *)

val write_json : path:string -> json -> unit
(** {!to_string} into a file. *)

val load_file : path:string -> (json, string) result
(** Parse a metrics file; fails when the file is unreadable, malformed, or
    does not carry the {!header}'s [schema] and the exact lexeme of its
    [schema_version] ([7.9] and [7.0] are refused). *)

(** {1 Comparison} *)

type diff = {
  d_path : string;     (** full dotted path, e.g. ["cells[3].fault_hist.p99_ns"] *)
  d_expected : string; (** baseline value (raw lexeme for numbers) *)
  d_got : string;      (** current value *)
  d_reason : string;   (** why it was flagged, including the tolerance *)
}

val compare_json : tolerance:float -> json -> json -> diff list
(** Structural comparison.  Non-numeric leaves and object/array shape must
    match exactly.  Numbers: with [tolerance = 0] the raw lexemes must be
    byte-identical; otherwise the relative difference
    |a-b| / max(|a|,|b|) must not exceed [tolerance] percent.
    @raise Invalid_argument when [tolerance] is negative, NaN or
    infinite. *)

val pp_diffs : ?limit:int -> Format.formatter -> diff list -> unit
(** Regression-gate failure report: for the first [limit] (default 8)
    mismatches print the full JSON path, the expected and observed values,
    and the reason (with the tolerance that was applied); any remainder is
    summarised as a count.  Assumes the formatter is inside a vertical
    box. *)
