(** The one JSON codec of the repository: every report, trace, metrics
    line, trajectory snapshot and Chrome export is emitted through
    {!to_string} and read back through {!parse}.

    Numbers keep their printed lexeme, so a value parsed and re-emitted
    gives back the same bytes (modulo insignificant whitespace), and an
    emitter picks each number's format ([%d], [%.4f], [%g], ...)
    itself. Strings are OCaml byte strings: {!to_string} escapes ['"'],
    ['\\'] and the control bytes below [0x20] and passes every other
    byte through, and {!parse} decodes [\uXXXX] escapes (surrogate
    pairs included) to UTF-8, so [parse (to_string v) = Ok v] for any
    value whose numbers are valid lexemes. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** the number's lexeme, e.g. ["42"], ["0.1250"] *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in emission order *)

val int : int -> t
(** [Num] of the [%d] lexeme. *)

val float : (float -> string, unit, string) format -> float -> t
(** [float fmt x] is [Num (Printf.sprintf fmt x)], or [Null] when [x]
    is not finite (JSON has no lexeme for nan or infinity). *)

val to_string : t -> string
(** Compact rendering: no whitespace, members in list order. *)

val parse : string -> (t, string) result
(** Strict RFC 8259 parser of one value, optionally surrounded by
    whitespace. Never raises; [Error] names the problem and its byte
    offset. *)

val member : string -> t -> t
(** The first member named so, or [Null] when absent or when the value
    is not an object. *)

val to_str : t -> string option
val to_bool : t -> bool option

val to_int : t -> int option
(** [Some] only for integral lexemes. *)

val to_float : t -> float option
val to_list : t -> t list option
