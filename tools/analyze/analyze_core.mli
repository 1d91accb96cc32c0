(* Typed whole-program analyzer over dune-produced .cmt files: mutable-
   state inventory on a local/owned/shared escape lattice, per-module
   domain-safety verdicts gated on [@domain_unsafe "reason"] annotations,
   and interprocedural allocation analysis of [@hot] functions with
   [@alloc_ok "reason"] acceptance. See DESIGN.md §14. *)

type escape = Local | Owned | Shared

val escape_name : escape -> string

type entry = {
  e_file : string;
  e_line : int;
  e_col : int;
  e_unit : string;
  e_binding : string;
  e_fn : string;
  e_kind : string;
  e_class : escape;
  e_reason : string option;
}

type finding = {
  f_file : string;
  f_line : int;
  f_col : int;
  f_rule : string;
  f_key : string;
  f_detail : string;
}

type hot_fn = {
  h_unit : string;
  h_fn : string;
  h_file : string;
  h_line : int;
  h_allocs : int;
  h_accepted : int;
  h_unresolved : int;
}

type mutable_type = { t_unit : string; t_name : string; t_fields : string list }

type module_report = {
  m_unit : string;
  m_file : string;
  m_local : int;
  m_owned : int;
  m_shared_annotated : int;
  m_shared_open : int;
}

type result = {
  r_units : int;
  r_entries : entry list;
  r_findings : finding list;
  r_hots : hot_fn list;
  r_mutable_types : mutable_type list;
  r_modules : module_report list;
}

type config = {
  allow : (string * string) list;  (** (rule, source-path substring) *)
  disabled : string list;
}

val default_config : config

val rules : (string * string) list
(** rule name -> one-line description *)

val cmt_paths : string list -> string list
(** every .cmt under the given roots, sorted *)

val analyze : ?config:config -> string list -> result
(** sweep every .cmt under the given root directories *)

val read_baseline : string -> (string list, string) Stdlib.result
(** accepted finding keys from a {"accept":[...]} baseline file;
    [Ok []] when the file does not exist, [Error] when it does not
    parse or "accept" is not an array of strings *)

val split_baseline :
  accept:string list -> finding list -> finding list * finding list
(** (open findings, baseline-accepted findings) *)

val to_json : ?accepted:finding list -> result -> string
(** deterministic JSON report; [accepted] lists baseline-demoted
    findings separately from the open ones in the result *)

val pp_finding : Format.formatter -> finding -> unit
val pp_summary : Format.formatter -> result -> unit
