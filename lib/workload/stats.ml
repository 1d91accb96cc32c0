type fingerprint = {
  git_sha : string;
  ocaml_version : string;
  word_size : int;
  flambda : bool;
  hostname : string;
}

(* ------------------------------------------------------------------ *)
(* Fingerprint                                                          *)
(* ------------------------------------------------------------------ *)

let read_first_line path =
  try
    let ic = open_in path in
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    close_in ic;
    line
  with Sys_error _ -> None

let short_sha s = if String.length s > 12 then String.sub s 0 12 else s

(* .git may be a file in a worktree: "gitdir: <path>" *)
let git_dir_of root =
  let dotgit = Filename.concat root ".git" in
  if Sys.file_exists dotgit then
    if Sys.is_directory dotgit then Some dotgit
    else
      match read_first_line dotgit with
      | Some line
        when String.length line > 8 && String.sub line 0 8 = "gitdir: " ->
          Some (String.sub line 8 (String.length line - 8))
      | _ -> None
  else None

let sha_of_git_dir gitdir =
  match read_first_line (Filename.concat gitdir "HEAD") with
  | None -> None
  | Some head ->
      if String.length head > 5 && String.sub head 0 5 = "ref: " then begin
        let refname = String.trim (String.sub head 5 (String.length head - 5)) in
        match read_first_line (Filename.concat gitdir refname) with
        | Some sha when String.length sha >= 7 -> Some sha
        | _ -> (
            (* loose ref absent: scan packed-refs for "<sha> <refname>" *)
            try
              let ic = open_in (Filename.concat gitdir "packed-refs") in
              let found = ref None in
              (try
                 while !found = None do
                   let line = input_line ic in
                   match String.index_opt line ' ' with
                   | Some i
                     when String.sub line (i + 1) (String.length line - i - 1)
                          = refname ->
                       found := Some (String.sub line 0 i)
                   | _ -> ()
                 done
               with End_of_file -> ());
              close_in ic;
              !found
            with Sys_error _ -> None)
      end
      else if String.length head >= 7 then Some head
      else None

let resolve_git_sha () =
  match Sys.getenv_opt "GITHUB_SHA" with
  | Some s when String.length s >= 7 -> Some (short_sha s)
  | _ ->
      let rec walk dir depth =
        if depth > 16 then None
        else
          match git_dir_of dir with
          | Some gitdir -> sha_of_git_dir gitdir
          | None ->
              let parent = Filename.dirname dir in
              if parent = dir then None else walk parent (depth + 1)
      in
      Option.map short_sha (walk (Sys.getcwd ()) 0)

let current_fingerprint () =
  {
    git_sha = Option.value (resolve_git_sha ()) ~default:"unknown";
    ocaml_version = Sys.ocaml_version;
    word_size = Sys.word_size;
    flambda = Config.flambda;
    hostname = (try Unix.gethostname () with Unix.Unix_error _ -> "unknown");
  }

let fingerprint_value fp =
  Json.Obj
    [
      ("git_sha", Json.Str fp.git_sha);
      ("ocaml_version", Json.Str fp.ocaml_version);
      ("word_size", Json.int fp.word_size);
      ("flambda", Json.Bool fp.flambda);
      ("hostname", Json.Str fp.hostname);
    ]

let fingerprint_json fp = Json.to_string (fingerprint_value fp)

let fingerprint_of_value j =
  let ( let* ) = Option.bind in
  let str k = Json.to_str (Json.member k j) in
  let* git_sha = str "git_sha" in
  let* ocaml_version = str "ocaml_version" in
  let* word_size = Json.to_int (Json.member "word_size" j) in
  let* flambda = Json.to_bool (Json.member "flambda" j) in
  let* hostname = str "hostname" in
  Some { git_sha; ocaml_version; word_size; flambda; hostname }

let fingerprint_of_json s =
  Option.bind (Result.to_option (Json.parse s)) fingerprint_of_value

(* the commit is what a comparison is about, so it is recorded and
   printed but never compared *)
let same_environment (a : fingerprint) b =
  a.ocaml_version = b.ocaml_version
  && a.word_size = b.word_size
  && a.flambda = b.flambda
  && a.hostname = b.hostname

let pp_fingerprint ppf fp =
  Format.fprintf ppf "sha=%s ocaml=%s word=%d flambda=%b host=%s" fp.git_sha
    fp.ocaml_version fp.word_size fp.flambda fp.hostname

(* ------------------------------------------------------------------ *)
(* Sampling                                                             *)
(* ------------------------------------------------------------------ *)

type plan = { warmup : int; samples : int; settle : bool }

let default_plan = { warmup = 1; samples = 5; settle = true }
let quick_plan = { warmup = 1; samples = 3; settle = true }

let settle () = Gc.full_major ()

type summary = { runs : int; median : float; mad : float; lo : float; hi : float }

let sorted_median a =
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let summarize xs =
  if xs = [] then invalid_arg "Stats.summarize: empty sample list";
  let a = Array.of_list xs in
  Array.sort compare a;
  let median = sorted_median a in
  let dev = Array.map (fun x -> Float.abs (x -. median)) a in
  Array.sort compare dev;
  { runs = Array.length a; median; mad = sorted_median dev; lo = a.(0); hi = a.(Array.length a - 1) }

let measure ?(plan = default_plan) f =
  for _ = 1 to plan.warmup do
    ignore (f ())
  done;
  let result = ref None in
  let samples =
    List.init (max 1 plan.samples) (fun _ ->
        if plan.settle then settle ();
        let t0 = Congest.Resource.now () in
        let v = f () in
        let dt = Congest.Resource.now () -. t0 in
        result := Some v;
        dt)
  in
  match !result with
  | Some v -> (v, summarize samples)
  | None -> assert false (* samples >= 1 *)

type overhead = {
  base : summary;
  layer : summary;
  base2 : summary;
  overhead_pct : float;
  floor_pct : float;
}

let overhead ?(plan = default_plan) ~base ~layer () =
  for _ = 1 to plan.warmup do
    ignore (layer ());
    ignore (base ())
  done;
  (* settle once per batch, not per sample: a heap collected before
     every sample has to regrow inside it *)
  let batch f =
    if plan.settle then settle ();
    snd (measure ~plan:{ plan with warmup = 0; settle = false } f)
  in
  let b = batch base in
  let l = batch layer in
  let b2 = batch base in
  let pct x = 100.0 *. (x.median -. b.median) /. Float.max b.median 1e-9 in
  { base = b; layer = l; base2 = b2; overhead_pct = pct l; floor_pct = pct b2 }

(* ------------------------------------------------------------------ *)
(* Significance                                                         *)
(* ------------------------------------------------------------------ *)

let threshold ?(rel = 0.10) ?(k = 3.0) ~mad baseline =
  Float.max (rel *. Float.abs baseline) (k *. mad)

let exceeds ?rel ?k ~mad ~baseline v =
  v -. baseline > threshold ?rel ?k ~mad baseline
