(* Typed whole-program analyzer over the .cmt Typedtree files dune
   already produces (compiler-libs Cmt_format + Tast_iterator, zero new
   dependencies — same recipe as tools/lint, one level deeper: the lint
   sees parsetrees per file, this pass sees *types and resolved paths*
   across the whole program, so it can look through module aliases,
   functor bodies and closure captures).

   Three analyses, one sweep:

   1. Mutable-state inventory — every creation of a mutable value
      (ref, array literal / Array.make family, Bytes, Hashtbl, Buffer,
      Queue, Stack, Bigarray, mutable-record literals) is recorded and
      classified on a three-point escape lattice:

        local  — never leaves its defining function: only "direct"
                 uses (field/array access, container-module operations,
                 downward closures passed straight to a call);
        owned  — escapes, but only into one value's lifetime: returned,
                 stored in a constructed value, or handed to a callee;
        shared — module-global (created at module-initialization time),
                 or captured by a closure that itself escapes (returned,
                 stored in a record/tuple — e.g. a Sim.program literal —
                 or bound and then passed around as a value).

   2. Domain-safety verdict — shared mutable state is exactly what an
      OCaml 5 domain fan-out would race on, so every `shared` entry must
      carry an explicit [@domain_unsafe "reason"] annotation (on the
      creation expression, its binding, an enclosing binding, or a
      [@@@domain_unsafe "reason"] floating attribute covering the whole
      unit) or be allow-listed; anything else is a finding and the
      analyzer exits non-zero. The annotated inventory *is* the
      migration worklist for the multicore carving engine.

   3. Hot-path allocation analysis — functions marked [@hot] are scanned
      interprocedurally (through statically-resolved calls into any
      analyzed unit, depth-bounded) for allocation sites: closures,
      tuples, records, array/constructor literals, known allocating
      stdlib calls, allocation primitives and boxed int32/int64/
      nativeint arithmetic. Cold branches under raise/failwith/
      invalid_arg/assert are skipped. [@alloc_ok "reason"] accepts a
      deliberate allocation.

   Atomic.make is recognized but exempt from the domain-safety verdict:
   atomics are the sanctioned shared-state primitive for the migration.

   Output is deterministic (all sections sorted) in both the human and
   the --json form, so the committed results file is byte-stable. *)

type escape = Local | Owned | Shared

let escape_name = function
  | Local -> "local"
  | Owned -> "owned"
  | Shared -> "shared"

type entry = {
  e_file : string;
  e_line : int;
  e_col : int;
  e_unit : string;
  e_binding : string;  (* nearest binding name, or "<anon>" *)
  e_fn : string;  (* enclosing function path, or "<module-init>" *)
  e_kind : string;  (* ref / array / hashtbl / record:Foo.t / ... *)
  e_class : escape;
  e_reason : string option;  (* [@domain_unsafe] reason when present *)
}

type finding = {
  f_file : string;
  f_line : int;
  f_col : int;
  f_rule : string;  (* domain-unsafe | hot-alloc | cmt-error *)
  f_key : string;  (* stable baseline key: file|rule|scope *)
  f_detail : string;
}

type hot_fn = {
  h_unit : string;
  h_fn : string;
  h_file : string;
  h_line : int;
  h_allocs : int;  (* unaccepted allocation findings *)
  h_accepted : int;  (* [@alloc_ok] sites *)
  h_unresolved : int;  (* calls we could not resolve to a body *)
}

type mutable_type = {
  t_unit : string;
  t_name : string;
  t_fields : string list;  (* the mutable labels *)
}

type module_report = {
  m_unit : string;
  m_file : string;
  m_local : int;
  m_owned : int;
  m_shared_annotated : int;
  m_shared_open : int;  (* shared without annotation = findings *)
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
  allow : (string * string) list;  (* rule, source-path substring *)
  disabled : string list;
}

let default_config = { allow = []; disabled = [] }

let rules =
  [
    ( "domain-unsafe",
      "shared mutable state without [@domain_unsafe \"reason\"]: a \
       domain fan-out would race on it" );
    ( "hot-alloc",
      "allocation reachable from a [@hot] function: closures, tuples, \
       records, literals, allocating calls, boxed int arithmetic" );
    ("cmt-error", "a .cmt file failed to load or had no typedtree");
  ]

(* ---------------------------------------------------------------- *)
(* small helpers                                                     *)
(* ---------------------------------------------------------------- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let split_dots s = String.split_on_char '.' s

(* "Stdlib.Array.make" and "Stdlib__Array.make" both mean Array.make;
   normalize so the creation/allocation tables match either spelling. *)
let normalize_path name =
  if starts_with ~prefix:"Stdlib__" name then
    String.sub name 8 (String.length name - 8)
  else if starts_with ~prefix:"Stdlib." name then
    String.sub name 7 (String.length name - 7)
  else name

let loc_pos (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

(* ---------------------------------------------------------------- *)
(* attributes                                                        *)
(* ---------------------------------------------------------------- *)

let attr_string (a : Parsetree.attribute) =
  match a.Parsetree.attr_payload with
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                _ );
          _;
        };
      ] ->
      Some s
  | _ -> None

let find_attr name (attrs : Parsetree.attributes) =
  List.find_opt (fun a -> a.Parsetree.attr_name.Location.txt = name) attrs

(* the annotation's reason string; Some "" when the attribute is present
   but carries no reason (the verdict treats that as unannotated: the
   grammar requires a reason) *)
let attr_reason name attrs =
  match find_attr name attrs with
  | None -> None
  | Some a -> Some (Option.value ~default:"" (attr_string a))

let has_attr name attrs = find_attr name attrs <> None

(* ---------------------------------------------------------------- *)
(* cmt loading                                                       *)
(* ---------------------------------------------------------------- *)

type unit_info = {
  u_name : string;  (* compilation unit, e.g. Dsgraph__Bfs *)
  u_file : string;  (* source path as recorded by the compiler *)
  u_str : Typedtree.structure;
  u_indexed_only : bool;  (* wrapper/alias units: index, don't analyze *)
}

let cmt_paths roots =
  let acc = ref [] in
  let rec walk path =
    if Sys.file_exists path then
      if Sys.is_directory path then
        Array.iter
          (fun entry ->
            if entry <> "." && entry <> ".." then
              walk (Filename.concat path entry))
          (Sys.readdir path)
      else if Filename.check_suffix path ".cmt" then acc := path :: !acc
  in
  List.iter walk roots;
  List.sort compare !acc

let load_units roots =
  let units = ref [] in
  let errors = ref [] in
  List.iter
    (fun path ->
      match Cmt_format.read_cmt path with
      | exception exn ->
          errors :=
            {
              f_file = path;
              f_line = 1;
              f_col = 0;
              f_rule = "cmt-error";
              f_key = path ^ "|cmt-error|read";
              f_detail = Printexc.to_string exn;
            }
            :: !errors
      | cmt -> (
          match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile)
          with
          | Cmt_format.Implementation str, Some src ->
              let indexed_only =
                Filename.check_suffix src ".ml-gen"
                || Filename.check_suffix src ".mlgen"
              in
              units :=
                {
                  u_name = cmt.Cmt_format.cmt_modname;
                  u_file = src;
                  u_str = str;
                  u_indexed_only = indexed_only;
                }
                :: !units
          | Cmt_format.Implementation str, None ->
              (* dune's executable wrapper modules: keep for alias
                 resolution only *)
              units :=
                {
                  u_name = cmt.Cmt_format.cmt_modname;
                  u_file = path;
                  u_str = str;
                  u_indexed_only = true;
                }
                :: !units
          | _ -> ()))
    (cmt_paths roots);
  let units =
    List.sort (fun a b -> compare (a.u_file, a.u_name) (b.u_file, b.u_name))
      !units
  in
  (units, List.rev !errors)

(* ---------------------------------------------------------------- *)
(* whole-program value index (for interprocedural hot analysis)      *)
(* ---------------------------------------------------------------- *)

type index = {
  (* (unit, dotted path inside unit) -> binding *)
  values : (string * string, Typedtree.value_binding) Hashtbl.t;
  (* (unit, dotted module path) -> target path name, for module aliases
     like `module Bfs = Dsgraph__Bfs` in dune's generated wrappers and
     `module A = Hot_dep` written by hand *)
  aliases : (string * string, string) Hashtbl.t;
  unit_names : (string, unit) Hashtbl.t;
}

let pat_name (p : Typedtree.pattern) =
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_var (_, name) -> Some name.Location.txt
  | Typedtree.Tpat_alias (_, _, name) -> Some name.Location.txt
  | _ -> None

let pat_ident (p : Typedtree.pattern) =
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_var (id, _) -> Some id
  | Typedtree.Tpat_alias (_, id, _) -> Some id
  | _ -> None

let index_units units =
  let idx =
    {
      values = Hashtbl.create 512;
      aliases = Hashtbl.create 64;
      unit_names = Hashtbl.create 64;
    }
  in
  let rec index_module u prefix (me : Typedtree.module_expr) =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_structure str -> index_structure u prefix str
    | Typedtree.Tmod_functor (_, body) -> index_module u prefix body
    | Typedtree.Tmod_constraint (m, _, _, _) -> index_module u prefix m
    | Typedtree.Tmod_ident (p, _) ->
        Hashtbl.replace idx.aliases (u, prefix) (Path.name p)
    | _ -> ()
  and index_structure u prefix (str : Typedtree.structure) =
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.Typedtree.str_desc with
        | Typedtree.Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                match pat_name vb.Typedtree.vb_pat with
                | Some name ->
                    let key =
                      if prefix = "" then name else prefix ^ "." ^ name
                    in
                    Hashtbl.replace idx.values (u, key) vb
                | None -> ())
              vbs
        | Typedtree.Tstr_module mb -> (
            match mb.Typedtree.mb_name.Location.txt with
            | Some name ->
                let sub =
                  if prefix = "" then name else prefix ^ "." ^ name
                in
                index_module u sub mb.Typedtree.mb_expr
            | None -> ())
        | Typedtree.Tstr_recmodule mbs ->
            List.iter
              (fun (mb : Typedtree.module_binding) ->
                match mb.Typedtree.mb_name.Location.txt with
                | Some name ->
                    let sub =
                      if prefix = "" then name else prefix ^ "." ^ name
                    in
                    index_module u sub mb.Typedtree.mb_expr
                | None -> ())
              mbs
        | Typedtree.Tstr_include incl ->
            index_module u prefix incl.Typedtree.incl_mod
        | _ -> ())
      str.Typedtree.str_items
  in
  List.iter
    (fun u ->
      Hashtbl.replace idx.unit_names u.u_name ();
      index_structure u.u_name "" u.u_str)
    units;
  idx

(* Resolve a referenced path (as printed by Path.name, from the unit
   [from_unit]) to an indexed binding. Handles: local values, submodule
   values, direct cross-unit references (Dsgraph__Bfs.f), references
   through wrapper/alias modules (Dsgraph.Bfs.f via the alias index),
   and a unique "__Suffix" match as a last resort. *)
let resolve_value idx ~from_unit name =
  let try_key u v = Hashtbl.find_opt idx.values (u, v) in
  let joined comps = String.concat "." comps in
  let rec through_aliases u comps fuel =
    match comps with
    | [] -> None
    | _ when fuel = 0 -> None
    | head :: rest -> (
        match try_key u (joined comps) with
        | Some vb -> Some vb
        | None -> (
            (* an alias may cover any prefix of the path *)
            let rec prefixes acc rev_pre = function
              | [] -> List.rev acc
              | c :: tl ->
                  let pre = List.rev (c :: rev_pre) in
                  prefixes ((pre, tl) :: acc) (c :: rev_pre) tl
            in
            let cands = prefixes [] [] (head :: rest) in
            let rec first = function
              | [] -> None
              | (pre, tl) :: more -> (
                  match Hashtbl.find_opt idx.aliases (u, joined pre) with
                  | Some target when tl <> [] -> (
                      let tcomps = split_dots target in
                      match tcomps with
                      | tu :: tsub when Hashtbl.mem idx.unit_names tu -> (
                          match
                            through_aliases tu (tsub @ tl) (fuel - 1)
                          with
                          | Some vb -> Some vb
                          | None -> first more)
                      | _ -> (
                          match
                            through_aliases u (tcomps @ tl) (fuel - 1)
                          with
                          | Some vb -> Some vb
                          | None -> first more))
                  | _ -> first more)
            in
            first cands))
  in
  match split_dots name with
  | [] -> None
  | [ v ] -> try_key from_unit v
  | head :: rest as comps -> (
      (* same-unit submodule value, or local alias *)
      match through_aliases from_unit comps 4 with
      | Some vb -> Some vb
      | None -> (
          (* cross-unit: first component is a compilation unit *)
          if Hashtbl.mem idx.unit_names head then
            match through_aliases head rest 4 with
            | Some vb -> Some vb
            | None -> None
          else
            (* unique mangled-name suffix: Bfs.f -> Dsgraph__Bfs.f *)
            let suffix = "__" ^ head in
            let matches =
              Hashtbl.fold
                (fun u () acc ->
                  if
                    String.length u > String.length suffix
                    && String.sub u
                         (String.length u - String.length suffix)
                         (String.length suffix)
                       = suffix
                  then u :: acc
                  else acc)
                idx.unit_names []
            in
            match matches with
            | [ u ] -> through_aliases u rest 4
            | _ -> None))

(* ---------------------------------------------------------------- *)
(* mutable-creation detection                                        *)
(* ---------------------------------------------------------------- *)

let creation_table =
  [
    ("ref", "ref");
    ("Array.make", "array");
    ("Array.create_float", "array");
    ("Array.init", "array");
    ("Array.make_matrix", "array");
    ("Array.copy", "array");
    ("Array.sub", "array");
    ("Array.append", "array");
    ("Array.concat", "array");
    ("Array.of_list", "array");
    ("Array.of_seq", "array");
    ("Array.map", "array");
    ("Array.mapi", "array");
    ("Bytes.create", "bytes");
    ("Bytes.make", "bytes");
    ("Bytes.init", "bytes");
    ("Bytes.copy", "bytes");
    ("Bytes.sub", "bytes");
    ("Bytes.of_string", "bytes");
    ("Hashtbl.create", "hashtbl");
    ("Hashtbl.copy", "hashtbl");
    ("Buffer.create", "buffer");
    ("Queue.create", "queue");
    ("Queue.copy", "queue");
    ("Stack.create", "stack");
    ("Stack.copy", "stack");
    ("Atomic.make", "atomic");
    ("Bigarray.Array0.create", "bigarray");
    ("Bigarray.Array1.create", "bigarray");
    ("Bigarray.Array2.create", "bigarray");
    ("Bigarray.Array3.create", "bigarray");
    ("Bigarray.Genarray.create", "bigarray");
    ("Bigarray.Array1.of_array", "bigarray");
    ("Bigarray.Array2.of_array", "bigarray");
  ]

let apply_head (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_apply (head, args) -> (
      match head.Typedtree.exp_desc with
      | Typedtree.Texp_ident (p, _, vd) -> Some (p, vd, args)
      | _ -> None)
  | _ -> None

let prim_name (vd : Types.value_description) =
  match vd.Types.val_kind with
  | Types.Val_prim pd -> Some pd.Primitive.prim_name
  | _ -> None

let type_head_name (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> normalize_path (Path.name p)
  | _ -> "?"

(* Some creation if the expression itself builds a mutable value *)
let classify_creation (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_array _ -> Some "array"
  | Typedtree.Texp_record { fields; _ } ->
      if
        Array.exists
          (fun ((lbl : Types.label_description), _) ->
            lbl.Types.lbl_mut = Asttypes.Mutable)
          fields
      then Some ("record:" ^ type_head_name e.Typedtree.exp_type)
      else None
  | _ -> (
      match apply_head e with
      | Some (p, vd, _) -> (
          let name = normalize_path (Path.name p) in
          match List.assoc_opt name creation_table with
          | Some kind -> Some kind
          | None -> (
              match prim_name vd with
              | Some "%makemutable" -> Some "ref"
              | _ -> None))
      | None -> None)

(* ---------------------------------------------------------------- *)
(* escape analysis for a let-bound mutable value                     *)
(* ---------------------------------------------------------------- *)

let container_modules =
  [
    "Array"; "Bytes"; "Hashtbl"; "Buffer"; "Queue"; "Stack"; "Bigarray";
    "Atomic"; "Weak";
  ]

(* operations that use a mutable value in place without taking
   ownership: container-module functions and the ref operators *)
let is_direct_op name =
  match split_dots name with
  | [ ("!" | ":=" | "incr" | "decr") ] -> true
  | m :: _ :: _ when List.mem m container_modules -> true
  | _ -> false

let iter_child_exprs f (e : Typedtree.expression) =
  let it =
    {
      Tast_iterator.default_iterator with
      expr = (fun _ child -> f child);
    }
  in
  Tast_iterator.default_iterator.expr it e

let is_ident_of id (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (Path.Pident i, _, _) -> Ident.same i id
  | _ -> false

(* does [id] occur in [e] anywhere other than called directly or passed
   as a call argument? Both count as downward uses — `List.iter mark l`
   is the eta-reduced form of `List.iter (fun v -> mark v) l`. What
   remains — stored in a record/tuple/constructor, returned, assigned —
   is escaping as a value. (A callee that *stores* a functional argument,
   e.g. a hook registry, is invisible here; that is the documented
   limitation the [@domain_unsafe] annotations on such APIs cover.) *)
let escapes_as_value id (e : Typedtree.expression) =
  let found = ref false in
  let rec go (e : Typedtree.expression) =
    if !found then ()
    else
      match e.Typedtree.exp_desc with
      | Typedtree.Texp_ident (Path.Pident i, _, _) when Ident.same i id ->
          found := true
      | Typedtree.Texp_apply (head, args) ->
          if not (is_ident_of id head) then go head;
          List.iter
            (fun (_, a) ->
              match a with
              | Some arg when is_ident_of id arg -> ()
              | a -> Option.iter go a)
            args
      | _ -> iter_child_exprs go e
  in
  go e;
  !found

let join a b =
  match (a, b) with
  | Shared, _ | _, Shared -> Shared
  | Owned, _ | _, Owned -> Owned
  | Local, Local -> Local

(* classify every use of [id] within [scope]; the result is the join *)
let analyze_uses id scope =
  let best = ref Local in
  let use escaping = best := join !best (if escaping then Shared else Owned) in
  let rec go ~escaping (e : Typedtree.expression) =
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (Path.Pident i, _, _) when Ident.same i id ->
        use escaping
    | Typedtree.Texp_field (b, _, _) when is_ident_of id b ->
        (* x.f : read through the value, stays local *)
        ()
    | Typedtree.Texp_setfield (b, _, _, v) when is_ident_of id b ->
        go ~escaping v
    | Typedtree.Texp_apply (head, args) ->
        let direct =
          match head.Typedtree.exp_desc with
          | Typedtree.Texp_ident (p, _, _) ->
              is_direct_op (normalize_path (Path.name p))
          | _ -> false
        in
        if not (is_ident_of id head) then go ~escaping head;
        List.iter
          (fun (_, a) ->
            match a with
            | None -> ()
            | Some (arg : Typedtree.expression) -> (
                if is_ident_of id arg then begin
                  (* x as argument: in-place op keeps it local,
                     any other call hands it away *)
                  if not direct then best := join !best Owned;
                  if escaping then use true
                end
                else
                  match arg.Typedtree.exp_desc with
                  | Typedtree.Texp_function { cases; _ } ->
                      (* downward funarg: runs within the call *)
                      go_cases ~escaping cases
                  | _ -> go ~escaping arg))
          args
    | Typedtree.Texp_function { cases; _ } ->
        (* a closure not in argument position escapes as a value:
           captures inside it are shared *)
        go_cases ~escaping:true cases
    | Typedtree.Texp_let (_, vbs, body) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            match
              (pat_ident vb.Typedtree.vb_pat, vb.Typedtree.vb_expr.exp_desc)
            with
            | Some hid, Typedtree.Texp_function { cases; _ } ->
                (* local helper: if the helper itself never escapes,
                   uses inside it are ordinary; otherwise they are
                   captured by an escaping closure *)
                let helper_escapes = escapes_as_value hid body in
                go_cases ~escaping:(escaping || helper_escapes) cases
            | _ -> go ~escaping vb.Typedtree.vb_expr)
          vbs;
        go ~escaping body
    | _ -> iter_child_exprs (go ~escaping) e
  (* walk a function body through its whole curried-parameter spine:
     `fun u v -> e` is one closure, not a closure-returning closure *)
  and go_cases ~escaping cases =
    List.iter
      (fun (c : Typedtree.value Typedtree.case) ->
        Option.iter (go ~escaping) c.Typedtree.c_guard;
        match c.Typedtree.c_rhs.Typedtree.exp_desc with
        | Typedtree.Texp_function { cases; _ } -> go_cases ~escaping cases
        | _ -> go ~escaping c.Typedtree.c_rhs)
      cases
  in
  go ~escaping:false scope;
  !best

(* ---------------------------------------------------------------- *)
(* hot-path allocation analysis                                      *)
(* ---------------------------------------------------------------- *)

let allocating_calls =
  [
    "List.map"; "List.mapi"; "List.map2"; "List.append"; "List.concat";
    "List.concat_map"; "List.filter"; "List.filter_map"; "List.init";
    "List.rev"; "List.rev_append"; "List.rev_map"; "List.sort";
    "List.sort_uniq"; "List.of_seq"; "List.to_seq"; "List.split";
    "List.combine"; "String.concat"; "String.make"; "String.init";
    "String.sub"; "String.cat"; "String.split_on_char"; "String.map";
    "Printf.sprintf"; "Printf.printf"; "Printf.eprintf"; "Printf.fprintf";
    "Format.asprintf"; "Format.sprintf"; "Format.printf"; "Format.fprintf";
    "^"; "@"; "Buffer.contents"; "Buffer.to_bytes"; "Bytes.to_string";
    "Array.to_list"; "Hashtbl.fold"; "Filename.concat"; "string_of_int";
    "string_of_float"; "float_of_string"; "int_of_string";
  ]

let cold_heads =
  [ "raise"; "raise_notrace"; "failwith"; "invalid_arg"; "exit" ]

let boxed_arith_prim name =
  starts_with ~prefix:"%int64_" name
  || starts_with ~prefix:"%int32_" name
  || starts_with ~prefix:"%nativeint_" name
  || starts_with ~prefix:"caml_int64_" name
  || starts_with ~prefix:"caml_int32_" name
  || starts_with ~prefix:"caml_nativeint_" name

let allocating_prims =
  [ "%makemutable"; "caml_make_vect"; "caml_make_float_vect"; "caml_array_sub"; "caml_array_append"; "caml_array_concat"; "caml_create_bytes"; "caml_obj_block" ]

(* strip the curried-parameter spine of a function binding, returning
   the innermost bodies to scan *)
let rec hot_bodies (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_function { cases = [ { c_rhs; _ } ]; _ } ->
      hot_bodies c_rhs
  | Typedtree.Texp_function { cases; _ } ->
      List.map (fun (c : Typedtree.value Typedtree.case) -> c.Typedtree.c_rhs) cases
  | _ -> [ e ]

type hot_ctx = {
  hc_idx : index;
  hc_file : string;
  hc_unit : string;
  hc_fn : string;
  mutable hc_findings : finding list;
  mutable hc_accepted : int;
  mutable hc_unresolved : int;
  hc_visiting : (string * string, unit) Hashtbl.t;
}

let hot_finding hc ~loc ~chain detail =
  let line, col = loc_pos loc in
  let via = if chain = [] then "" else " via " ^ String.concat " -> " (List.rev chain) in
  hc.hc_findings <-
    {
      f_file = hc.hc_file;
      f_line = line;
      f_col = col;
      f_rule = "hot-alloc";
      f_key = hc.hc_file ^ "|hot-alloc|" ^ hc.hc_fn;
      f_detail =
        Printf.sprintf "[@hot] %s: %s%s" hc.hc_fn detail via;
    }
    :: hc.hc_findings

let rec hot_scan hc ~depth ~chain ~(alloc_ok : bool)
    (e : Typedtree.expression) =
  let accepted =
    alloc_ok || has_attr "alloc_ok" e.Typedtree.exp_attributes
  in
  let note loc detail =
    if accepted then hc.hc_accepted <- hc.hc_accepted + 1
    else hot_finding hc ~loc ~chain detail
  in
  let descend ?(ok = accepted) child =
    hot_scan hc ~depth ~chain ~alloc_ok:ok child
  in
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_function { cases; _ } ->
      note e.Typedtree.exp_loc "closure allocation";
      List.iter
        (fun (c : Typedtree.value Typedtree.case) ->
          descend c.Typedtree.c_rhs)
        cases
  | Typedtree.Texp_tuple els ->
      note e.Typedtree.exp_loc "tuple allocation";
      List.iter descend els
  | Typedtree.Texp_record { fields; extended_expression; _ } ->
      note e.Typedtree.exp_loc "record allocation";
      Array.iter
        (fun (_, def) ->
          match def with
          | Typedtree.Overridden (_, v) -> descend v
          | Typedtree.Kept _ -> ())
        fields;
      Option.iter descend extended_expression
  | Typedtree.Texp_array els ->
      note e.Typedtree.exp_loc "array-literal allocation";
      List.iter descend els
  | Typedtree.Texp_construct (_, cd, args) ->
      if args <> [] then
        note e.Typedtree.exp_loc
          (Printf.sprintf "constructor allocation (%s)"
             cd.Types.cstr_name);
      List.iter descend args
  | Typedtree.Texp_lazy body ->
      note e.Typedtree.exp_loc "lazy allocation";
      descend body
  | Typedtree.Texp_assert _ -> ()  (* cold branch *)
  | Typedtree.Texp_apply (head, args) -> (
      match head.Typedtree.exp_desc with
      | Typedtree.Texp_ident (p, _, vd) -> (
          let name = normalize_path (Path.name p) in
          if List.mem name cold_heads then ()  (* error path: skip args *)
          else begin
            (match prim_name vd with
            | Some prim ->
                if List.mem prim allocating_prims then
                  note e.Typedtree.exp_loc
                    (Printf.sprintf "allocating primitive %s (%s)" prim
                       name)
                else if boxed_arith_prim prim then
                  note e.Typedtree.exp_loc
                    (Printf.sprintf "boxed arithmetic %s" name)
            | None ->
                if List.mem name allocating_calls then
                  note e.Typedtree.exp_loc
                    (Printf.sprintf "allocating call %s" name)
                else if List.mem_assoc name creation_table then
                  note e.Typedtree.exp_loc
                    (Printf.sprintf "allocating call %s (fresh %s)" name
                       (List.assoc name creation_table))
                else
                  hot_call hc ~depth ~chain ~loc:e.Typedtree.exp_loc name);
            List.iter (fun (_, a) -> Option.iter descend a) args
          end)
      | _ ->
          descend head;
          List.iter (fun (_, a) -> Option.iter descend a) args)
  | _ -> iter_child_exprs descend e

(* a statically-resolved call out of a hot function: follow it into the
   analyzed program, depth-bounded *)
and hot_call hc ~depth ~chain ~loc name =
  match resolve_value hc.hc_idx ~from_unit:hc.hc_unit name with
  | None ->
      (* externals / stdlib / not statically known: count, don't guess *)
      if not (starts_with ~prefix:"Stdlib" name) then
        hc.hc_unresolved <- hc.hc_unresolved + 1
  | Some vb ->
      if has_attr "hot" vb.Typedtree.vb_attributes then ()
        (* checked at its own definition *)
      else if has_attr "alloc_ok" vb.Typedtree.vb_attributes then
        hc.hc_accepted <- hc.hc_accepted + 1
      else if depth = 0 then
        hot_finding hc ~loc ~chain
          (Printf.sprintf
             "call to %s exceeds the interprocedural depth budget \
              (mark it [@hot] or [@alloc_ok])"
             name)
      else begin
        let key = (hc.hc_unit, name) in
        if not (Hashtbl.mem hc.hc_visiting key) then begin
          Hashtbl.add hc.hc_visiting key ();
          List.iter
            (fun body ->
              hot_scan hc ~depth:(depth - 1) ~chain:(name :: chain)
                ~alloc_ok:false body)
            (hot_bodies vb.Typedtree.vb_expr);
          Hashtbl.remove hc.hc_visiting key
        end
      end

(* ---------------------------------------------------------------- *)
(* per-unit sweep: inventory + verdicts + hot functions              *)
(* ---------------------------------------------------------------- *)

type sweep_state = {
  s_idx : index;
  s_config : config;
  mutable s_entries : entry list;
  mutable s_findings : finding list;
  mutable s_hots : hot_fn list;
  mutable s_mutable_types : mutable_type list;
}

let allowed config rule file =
  List.mem rule config.disabled
  || List.exists
       (fun (r, sub) -> r = rule && contains ~sub file)
       config.allow

let sweep_unit st (u : unit_info) =
  let file = u.u_file in
  (* [@@@domain_unsafe "reason"] floating attribute covers the unit *)
  let unit_reason =
    List.fold_left
      (fun acc (item : Typedtree.structure_item) ->
        match (acc, item.Typedtree.str_desc) with
        | None, Typedtree.Tstr_attribute a
          when a.Parsetree.attr_name.Location.txt = "domain_unsafe" ->
            Some (Option.value ~default:"" (attr_string a))
        | _ -> acc)
      None u.u_str.Typedtree.str_items
  in
  (* stacks threaded through the walk *)
  let fn_stack = ref [] in
  let bind_stack = ref [] in
  let attr_stack = ref [] in
  let fn_depth = ref 0 in
  let claimed : (Location.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let current_fn () =
    match List.rev !fn_stack with
    | [] -> "<module-init>"
    | fns -> String.concat "." fns
  in
  let current_binding () =
    match !bind_stack with [] -> "<anon>" | b :: _ -> b
  in
  (* the nearest reason: creation-site attrs, then enclosing binding
     attrs, then the unit-wide floating attribute *)
  let find_reason (extra : Parsetree.attributes list) =
    let stacked =
      List.fold_left
        (fun acc attrs ->
          match acc with
          | Some _ -> acc
          | None -> attr_reason "domain_unsafe" attrs)
        None (extra @ !attr_stack)
    in
    match stacked with Some _ as r -> r | None -> unit_reason
  in
  let record_entry ~loc ~kind ~cls ~(extra_attrs : Parsetree.attributes list)
      ~binding =
    let line, col = loc_pos loc in
    let reason = find_reason extra_attrs in
    let reason, cls =
      (* atomics are the sanctioned shared primitive *)
      if kind = "atomic" && cls = Shared && reason = None then
        (Some "atomic: sanctioned shared-state primitive", cls)
      else (reason, cls)
    in
    st.s_entries <-
      {
        e_file = file;
        e_line = line;
        e_col = col;
        e_unit = u.u_name;
        e_binding = binding;
        e_fn = current_fn ();
        e_kind = kind;
        e_class = cls;
        e_reason = reason;
      }
      :: st.s_entries;
    if
      cls = Shared
      && (reason = None || reason = Some "")
      && not (allowed st.s_config "domain-unsafe" file)
    then begin
      let scope = current_fn () in
      st.s_findings <-
        {
          f_file = file;
          f_line = line;
          f_col = col;
          f_rule = "domain-unsafe";
          f_key = file ^ "|domain-unsafe|" ^ scope ^ "|" ^ binding;
          f_detail =
            Printf.sprintf
              "%s `%s` in %s is shared mutable state (%s): annotate \
               [@domain_unsafe \"reason\"] or confine it"
              kind binding scope
              (if scope = "<module-init>" then "module-global"
               else "captured by an escaping closure");
        }
        :: st.s_findings
    end
  in
  let claim (e : Typedtree.expression) =
    Hashtbl.replace claimed e.Typedtree.exp_loc ()
  in
  let is_claimed (e : Typedtree.expression) =
    Hashtbl.mem claimed e.Typedtree.exp_loc
  in
  let run_hot ~fn_name (vb : Typedtree.value_binding) =
    if not (allowed st.s_config "hot-alloc" file) then begin
      let hc =
        {
          hc_idx = st.s_idx;
          hc_file = file;
          hc_unit = u.u_name;
          hc_fn = fn_name;
          hc_findings = [];
          hc_accepted = 0;
          hc_unresolved = 0;
          hc_visiting = Hashtbl.create 8;
        }
      in
      List.iter
        (fun body -> hot_scan hc ~depth:3 ~chain:[] ~alloc_ok:false body)
        (hot_bodies vb.Typedtree.vb_expr);
      st.s_findings <- hc.hc_findings @ st.s_findings;
      let line, _ = loc_pos vb.Typedtree.vb_loc in
      st.s_hots <-
        {
          h_unit = u.u_name;
          h_fn = fn_name;
          h_file = file;
          h_line = line;
          h_allocs = List.length hc.hc_findings;
          h_accepted = hc.hc_accepted;
          h_unresolved = hc.hc_unresolved;
        }
        :: st.s_hots
    end
  in
  let rec walk_expr (e : Typedtree.expression) =
    let pushed_attrs =
      if e.Typedtree.exp_attributes <> [] then begin
        attr_stack := e.Typedtree.exp_attributes :: !attr_stack;
        true
      end
      else false
    in
    (match classify_creation e with
    | Some kind when not (is_claimed e) ->
        claim e;
        let cls = if !fn_depth = 0 then Shared else Owned in
        record_entry ~loc:e.Typedtree.exp_loc ~kind ~cls
          ~extra_attrs:[ e.Typedtree.exp_attributes ]
          ~binding:(current_binding ())
    | _ -> ());
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_let (_, vbs, body) ->
        List.iter (fun vb -> walk_vb ~toplevel:false vb body) vbs;
        walk_expr body
    | Typedtree.Texp_function { cases; _ } ->
        incr fn_depth;
        List.iter
          (fun (c : Typedtree.value Typedtree.case) ->
            Option.iter walk_expr c.Typedtree.c_guard;
            walk_expr c.Typedtree.c_rhs)
          cases;
        decr fn_depth
    | _ -> iter_child_exprs walk_expr e);
    if pushed_attrs then attr_stack := List.tl !attr_stack
  and walk_vb ~toplevel (vb : Typedtree.value_binding) scope =
    let name =
      Option.value ~default:"<pattern>" (pat_name vb.Typedtree.vb_pat)
    in
    if has_attr "hot" vb.Typedtree.vb_attributes then run_hot ~fn_name:name vb;
    attr_stack := vb.Typedtree.vb_attributes :: !attr_stack;
    bind_stack := name :: !bind_stack;
    (match
       (classify_creation vb.Typedtree.vb_expr, pat_ident vb.Typedtree.vb_pat)
     with
    | Some kind, Some id ->
        claim vb.Typedtree.vb_expr;
        let cls =
          if !fn_depth = 0 || toplevel then Shared
          else analyze_uses id scope
        in
        record_entry ~loc:vb.Typedtree.vb_expr.Typedtree.exp_loc ~kind ~cls
          ~extra_attrs:
            [
              vb.Typedtree.vb_expr.Typedtree.exp_attributes;
              vb.Typedtree.vb_attributes;
            ]
          ~binding:name;
        (* nested creations inside the creation's arguments *)
        iter_child_exprs walk_expr vb.Typedtree.vb_expr
    | _, _ -> (
        match vb.Typedtree.vb_expr.Typedtree.exp_desc with
        | Typedtree.Texp_function _ ->
            fn_stack := name :: !fn_stack;
            walk_expr vb.Typedtree.vb_expr;
            fn_stack := List.tl !fn_stack
        | _ -> walk_expr vb.Typedtree.vb_expr));
    bind_stack := List.tl !bind_stack;
    attr_stack := List.tl !attr_stack
  and walk_item (item : Typedtree.structure_item) =
    match item.Typedtree.str_desc with
    | Typedtree.Tstr_value (_, vbs) ->
        (* module-level: scope for escape analysis is irrelevant —
           a mutable binding evaluated at module init is shared *)
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            walk_vb ~toplevel:true vb vb.Typedtree.vb_expr)
          vbs
    | Typedtree.Tstr_eval (e, _) -> walk_expr e
    | Typedtree.Tstr_module mb -> walk_module mb.Typedtree.mb_expr
    | Typedtree.Tstr_recmodule mbs ->
        List.iter
          (fun (mb : Typedtree.module_binding) ->
            walk_module mb.Typedtree.mb_expr)
          mbs
    | Typedtree.Tstr_include incl -> walk_module incl.Typedtree.incl_mod
    | Typedtree.Tstr_type (_, decls) ->
        List.iter
          (fun (td : Typedtree.type_declaration) ->
            match td.Typedtree.typ_kind with
            | Typedtree.Ttype_record lds ->
                let muts =
                  List.filter_map
                    (fun (ld : Typedtree.label_declaration) ->
                      if ld.Typedtree.ld_mutable = Asttypes.Mutable then
                        Some ld.Typedtree.ld_name.Location.txt
                      else None)
                    lds
                in
                if muts <> [] then
                  st.s_mutable_types <-
                    {
                      t_unit = u.u_name;
                      t_name = td.Typedtree.typ_name.Location.txt;
                      t_fields = muts;
                    }
                    :: st.s_mutable_types
            | _ -> ())
          decls
    | _ -> ()
  and walk_module (me : Typedtree.module_expr) =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_structure str ->
        List.iter walk_item str.Typedtree.str_items
    | Typedtree.Tmod_functor (_, body) -> walk_module body
    | Typedtree.Tmod_constraint (m, _, _, _) -> walk_module m
    | Typedtree.Tmod_apply (m1, m2, _) ->
        walk_module m1;
        walk_module m2
    | Typedtree.Tmod_unpack (e, _) -> walk_expr e
    | _ -> ()
  in
  List.iter walk_item u.u_str.Typedtree.str_items

(* ---------------------------------------------------------------- *)
(* analysis entry point                                              *)
(* ---------------------------------------------------------------- *)

let sort_entries es =
  List.sort
    (fun a b ->
      compare
        (a.e_file, a.e_line, a.e_col, a.e_binding)
        (b.e_file, b.e_line, b.e_col, b.e_binding))
    es

let sort_findings fs =
  List.sort
    (fun a b ->
      compare
        (a.f_file, a.f_line, a.f_col, a.f_rule, a.f_detail)
        (b.f_file, b.f_line, b.f_col, b.f_rule, b.f_detail))
    fs

let analyze ?(config = default_config) roots =
  let units, errors = load_units roots in
  let analyzed = List.filter (fun u -> not u.u_indexed_only) units in
  let idx = index_units units in
  let st =
    {
      s_idx = idx;
      s_config = config;
      s_entries = [];
      s_findings = [];
      s_hots = [];
      s_mutable_types = [];
    }
  in
  List.iter (fun u -> sweep_unit st u) analyzed;
  let entries = sort_entries st.s_entries in
  let findings =
    sort_findings
      (errors
      @ List.filter
          (fun f -> not (List.mem f.f_rule config.disabled))
          st.s_findings)
  in
  let modules =
    List.map
      (fun u ->
        let mine = List.filter (fun e -> e.e_unit = u.u_name) entries in
        let count p = List.length (List.filter p mine) in
        {
          m_unit = u.u_name;
          m_file = u.u_file;
          m_local = count (fun e -> e.e_class = Local);
          m_owned = count (fun e -> e.e_class = Owned);
          m_shared_annotated =
            count (fun e ->
                e.e_class = Shared
                && match e.e_reason with Some r -> r <> "" | None -> false);
          m_shared_open =
            count (fun e ->
                e.e_class = Shared
                && match e.e_reason with Some r -> r = "" | None -> true);
        })
      analyzed
  in
  {
    r_units = List.length analyzed;
    r_entries = entries;
    r_findings = findings;
    r_hots =
      List.sort (fun a b -> compare (a.h_file, a.h_line) (b.h_file, b.h_line))
        st.s_hots;
    r_mutable_types =
      List.sort (fun a b -> compare (a.t_unit, a.t_name) (b.t_unit, b.t_name))
        st.s_mutable_types;
    r_modules =
      List.sort (fun a b -> compare a.m_file b.m_file) modules;
  }

(* ---------------------------------------------------------------- *)
(* baseline                                                          *)
(* ---------------------------------------------------------------- *)

(* the baseline file is {"accept":["key", ...]}: a finding whose key is
   listed is reported but does not fail the build. The committed
   baseline is empty — every shared value is annotated at source. *)
let read_baseline path =
  if not (Sys.file_exists path) then Ok []
  else
    let text = In_channel.with_open_bin path In_channel.input_all in
    let bad what = Error (Printf.sprintf "%s: %s" path what) in
    match Json.parse text with
    | Error e -> bad e
    | Ok doc -> (
        match Json.to_list (Json.member "accept" doc) with
        | None -> bad "\"accept\" is not an array"
        | Some items ->
            let keys = List.filter_map Json.to_str items in
            if List.length keys = List.length items then Ok keys
            else bad "\"accept\" holds a value that is not a string")

let split_baseline ~accept findings =
  List.partition (fun f -> not (List.mem f.f_key accept)) findings

(* ---------------------------------------------------------------- *)
(* output                                                            *)
(* ---------------------------------------------------------------- *)

let to_json ?(accepted = []) r =
  let str s = Json.Str s and i = Json.int in
  let module_ m =
    Json.Obj
      [
        ("unit", str m.m_unit);
        ("file", str m.m_file);
        ("local", i m.m_local);
        ("owned", i m.m_owned);
        ("shared_annotated", i m.m_shared_annotated);
        ("shared_open", i m.m_shared_open);
        ("verdict", str (if m.m_shared_open = 0 then "safe" else "unsafe"));
      ]
  in
  let entry e =
    let reason =
      match e.e_reason with None -> [] | Some rsn -> [ ("reason", str rsn) ]
    in
    Json.Obj
      ([
         ("file", str e.e_file);
         ("line", i e.e_line);
         ("col", i e.e_col);
         ("unit", str e.e_unit);
         ("binding", str e.e_binding);
         ("fn", str e.e_fn);
         ("kind", str e.e_kind);
         ("class", str (escape_name e.e_class));
       ]
      @ reason)
  in
  let mutable_type t =
    Json.Obj
      [
        ("unit", str t.t_unit);
        ("type", str t.t_name);
        ("fields", Json.Arr (List.map str t.t_fields));
      ]
  in
  let hot h =
    Json.Obj
      [
        ("unit", str h.h_unit);
        ("fn", str h.h_fn);
        ("file", str h.h_file);
        ("line", i h.h_line);
        ("allocs", i h.h_allocs);
        ("accepted", i h.h_accepted);
        ("unresolved", i h.h_unresolved);
      ]
  in
  let finding f =
    Json.Obj
      [
        ("file", str f.f_file);
        ("line", i f.f_line);
        ("col", i f.f_col);
        ("rule", str f.f_rule);
        ("key", str f.f_key);
        ("detail", str f.f_detail);
      ]
  in
  let count (rule, _) =
    let hits = List.filter (fun f -> f.f_rule = rule) r.r_findings in
    (rule, i (List.length hits))
  in
  let list f xs = Json.Arr (List.map f xs) in
  Json.to_string
    (Json.Obj
       [
         ("version", i 1);
         ("units", i r.r_units);
         ("modules", list module_ r.r_modules);
         ("inventory", list entry r.r_entries);
         ("mutable_types", list mutable_type r.r_mutable_types);
         ("hot", list hot r.r_hots);
         ("findings", list finding r.r_findings);
         ("accepted_findings", list finding accepted);
         ("counts", Json.Obj (List.map count rules));
       ])

let pp_finding fmt f =
  Format.fprintf fmt "%s:%d:%d: [%s] %s" f.f_file f.f_line f.f_col f.f_rule
    f.f_detail

let pp_summary fmt r =
  Format.fprintf fmt "%-28s %-34s %6s %6s %9s %6s  %s@." "unit" "file"
    "local" "owned" "annotated" "open" "verdict";
  List.iter
    (fun m ->
      Format.fprintf fmt "%-28s %-34s %6d %6d %9d %6d  %s@." m.m_unit
        m.m_file m.m_local m.m_owned m.m_shared_annotated m.m_shared_open
        (if m.m_shared_open = 0 then "safe" else "UNSAFE"))
    r.r_modules;
  if r.r_hots <> [] then begin
    Format.fprintf fmt "@.%-28s %-30s %7s %9s %11s@." "unit" "[@hot]"
      "allocs" "accepted" "unresolved";
    List.iter
      (fun h ->
        Format.fprintf fmt "%-28s %-30s %7d %9d %11d@." h.h_unit h.h_fn
          h.h_allocs h.h_accepted h.h_unresolved)
      r.r_hots
  end
