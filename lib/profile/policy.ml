(** Profile-guided placement policy: turn measured per-site lifetimes into
    per-site allocation decisions.

    The measurement half lives in {!Profile}: every allocation site carries
    its survival rate (words copied out of an evacuated region over words
    that had the chance to die there). This module is the decision half —
    the classifier that maps a site's measured rate and sample mass onto
    one of three placements:

    - {e nursery}: the default. Allocate in the nursery and let minor
      collections sort the wheat from the chaff. Every site starts here,
      and every site without enough completed lifetimes to judge stays
      here — a low-confidence pretenure is worse than none, because a
      wrongly pretenured short-lived object is immortal until the next
      full collection.
    - {e pretenure}: the site's objects overwhelmingly survive, so paying
      the copy to promote them one at a time is pure waste. Allocate
      directly in the old generation.
    - {e pool}: pretenure-grade survival {e and} a high allocation count —
      a linked structure grown cell by cell from one site. Such sites get
      per-site bump regions carved from the old generation, so the
      structure ends up contiguous for locality instead of interleaved
      with every other promotion.

    A policy is serialized as a versioned [mm-policy] v1 JSON document.
    Sites are keyed by the stable (proc, line, col, tdesc) tuple rather
    than by site id, so a policy derived from one build maps onto an image
    recompiled with different optimization flags (site {e ids} are
    assigned in lowering order and may shift; source positions and the
    allocated type do not). *)

module J = Telemetry.Json

type decision = Nursery | Pretenure | Pool

(** Classifier knobs. [pretenure_rate] is the survival-rate floor for
    leaving the nursery; [min_sample_words] is the confidence floor —
    a site must have seen at least this many words complete a lifetime
    (survive or die) before its rate is trusted; [pool_min_allocs] routes
    high-count pretenure-grade sites to pooled placement. *)
type thresholds = {
  pretenure_rate : float;
  min_sample_words : int;
  pool_min_allocs : int;
}

let default_thresholds =
  { pretenure_rate = 0.8; min_sample_words = 64; pool_min_allocs = 32 }

(** One classified site. The measured rate and sample mass ride along for
    human inspection and for tooling that re-filters a policy; only the
    key and the decision affect execution. *)
type entry = {
  e_proc : string;
  e_line : int;
  e_col : int;
  e_tdesc : int;
  e_open : bool;
  e_decision : decision;
  e_rate : float; (* measured survival rate behind the decision *)
  e_samples : int; (* completed-lifetime words the rate rests on *)
  e_allocs : int; (* allocations observed at the site *)
}

type t = { thresholds : thresholds; entries : entry list }

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

(** The classifier itself, shared verbatim by a parsed [mm-profile]
    document and a live {!Profile.t} side table — one function, so both
    give exactly the same decisions from the same counts. *)
let classify th ~allocs ~survived_words ~dead_words =
  let samples = survived_words + dead_words in
  if samples < max 1 th.min_sample_words then Nursery
  else
    let rate = float_of_int survived_words /. float_of_int samples in
    if rate < th.pretenure_rate then Nursery
    else if allocs >= th.pool_min_allocs then Pool
    else Pretenure

let entry_of_counts th ~proc ~line ~col ~tdesc ~open_ ~allocs ~survived_words
    ~dead_words =
  let samples = survived_words + dead_words in
  {
    e_proc = proc;
    e_line = line;
    e_col = col;
    e_tdesc = tdesc;
    e_open = open_;
    e_decision = classify th ~allocs ~survived_words ~dead_words;
    e_rate =
      (if samples = 0 then 0.0
       else float_of_int survived_words /. float_of_int samples);
    e_samples = samples;
    e_allocs = allocs;
  }

(** Derive a policy from a live profiler side table (a training run in
    the same process, as the gen-pgo benchmark takes). *)
let derive_from_stats ?(thresholds = default_thresholds) (p : Profile.t) : t =
  let entries =
    List.init (Array.length p.Profile.sites) (fun i ->
        let s = p.Profile.sites.(i) and st = p.Profile.stats.(i) in
        entry_of_counts thresholds ~proc:s.Profile.s_proc ~line:s.Profile.s_line
          ~col:s.Profile.s_col ~tdesc:s.Profile.s_tdesc ~open_:s.Profile.s_open
          ~allocs:st.Profile.st_allocs
          ~survived_words:(st.Profile.st_minor_words + st.Profile.st_full_words)
          ~dead_words:st.Profile.st_dead_words)
  in
  { thresholds; entries }

(* ------------------------------------------------------------------ *)
(* mm-profile input (the offline path)                                 *)
(* ------------------------------------------------------------------ *)

exception Policy_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Policy_error m)) fmt

let j_int k o = match J.member k o with Some (J.Int i) -> i | _ -> 0
let j_str k o = match J.member k o with Some (J.Str s) -> s | _ -> ""
let j_bool k o = match J.member k o with Some (J.Bool b) -> b | _ -> false

let j_float k o =
  match J.member k o with
  | Some (J.Float f) -> f
  | Some (J.Int i) -> float_of_int i
  | _ -> 0.0

(** Derive a policy from a parsed [mm-profile] v1 document (the output of
    [mmrun --profile]).
    @raise Policy_error when the document is not an mm-profile. *)
let derive_from_profile ?(thresholds = default_thresholds) (doc : J.t) : t =
  (match J.member "schema" doc with
  | Some (J.Str "mm-profile") -> ()
  | Some (J.Str s) -> fail "not an mm-profile document (schema %S)" s
  | _ -> fail "not an mm-profile document (no schema)");
  let sites =
    match Option.bind (J.member "sites" doc) J.to_list with
    | Some sites -> sites
    | None -> fail "mm-profile document has no sites array"
  in
  let entries =
    List.map
      (fun s ->
        entry_of_counts thresholds ~proc:(j_str "proc" s) ~line:(j_int "line" s)
          ~col:(j_int "col" s) ~tdesc:(j_int "tdesc" s)
          ~open_:(j_bool "open_array" s) ~allocs:(j_int "allocs" s)
          ~survived_words:
            (j_int "minor_survived_words" s + j_int "full_survived_words" s)
          ~dead_words:(j_int "dead_words" s))
      sites
  in
  { thresholds; entries }

(* ------------------------------------------------------------------ *)
(* mm-policy serialization                                             *)
(* ------------------------------------------------------------------ *)

let schema_name = "mm-policy"
let schema_version = 1

let decision_to_string = function
  | Nursery -> "nursery"
  | Pretenure -> "pretenure"
  | Pool -> "pool"

let decision_of_string = function
  | "nursery" -> Nursery
  | "pretenure" -> Pretenure
  | "pool" -> Pool
  | s -> fail "unknown placement decision %S" s

let entry_json (e : entry) : J.t =
  J.Obj
    [
      ("proc", J.Str e.e_proc);
      ("line", J.Int e.e_line);
      ("col", J.Int e.e_col);
      ("tdesc", J.Int e.e_tdesc);
      ("open_array", J.Bool e.e_open);
      ("decision", J.Str (decision_to_string e.e_decision));
      ("survival_rate", J.Float e.e_rate);
      ("sample_words", J.Int e.e_samples);
      ("allocs", J.Int e.e_allocs);
    ]

let to_json (t : t) : J.t =
  J.Obj
    [
      ("schema", J.Str schema_name);
      ("version", J.Int schema_version);
      ( "thresholds",
        J.Obj
          [
            ("pretenure_rate", J.Float t.thresholds.pretenure_rate);
            ("min_sample_words", J.Int t.thresholds.min_sample_words);
            ("pool_min_allocs", J.Int t.thresholds.pool_min_allocs);
          ] );
      ("sites", J.List (List.map entry_json t.entries));
    ]

(** Parse an [mm-policy] v1 document.
    @raise Policy_error on schema or version mismatch. *)
let of_json (doc : J.t) : t =
  (match J.member "schema" doc with
  | Some (J.Str s) when s = schema_name -> ()
  | Some (J.Str s) -> fail "not an mm-policy document (schema %S)" s
  | _ -> fail "not an mm-policy document (no schema)");
  (match J.member "version" doc with
  | Some (J.Int v) when v = schema_version -> ()
  | Some (J.Int v) -> fail "unsupported mm-policy version %d (want %d)" v schema_version
  | _ -> fail "mm-policy document has no version");
  let thresholds =
    match J.member "thresholds" doc with
    | Some th ->
        {
          pretenure_rate = j_float "pretenure_rate" th;
          min_sample_words = j_int "min_sample_words" th;
          pool_min_allocs = j_int "pool_min_allocs" th;
        }
    | None -> default_thresholds
  in
  let entries =
    match Option.bind (J.member "sites" doc) J.to_list with
    | None -> fail "mm-policy document has no sites array"
    | Some sites ->
        List.map
          (fun s ->
            {
              e_proc = j_str "proc" s;
              e_line = j_int "line" s;
              e_col = j_int "col" s;
              e_tdesc = j_int "tdesc" s;
              e_open = j_bool "open_array" s;
              e_decision = decision_of_string (j_str "decision" s);
              e_rate = j_float "survival_rate" s;
              e_samples = j_int "sample_words" s;
              e_allocs = j_int "allocs" s;
            })
          sites
  in
  { thresholds; entries }

(* ------------------------------------------------------------------ *)
(* Mapping a policy onto an image                                      *)
(* ------------------------------------------------------------------ *)

(* The per-site decision codes the allocator consults (O(1) array index on
   the allocation fast path; see Vm.Interp). *)
let nursery_code = 0
let pretenure_code = 1
let pool_code = 2

let decision_code = function
  | Nursery -> nursery_code
  | Pretenure -> pretenure_code
  | Pool -> pool_code

(** Map a policy onto an image's static site table: a decision-code array
    indexed by site id. Sites are matched by the stable
    (proc, line, col, tdesc) key; unmatched sites default to the nursery,
    so a policy from an older build degrades gracefully rather than
    failing. Returns the array and the number of sites matched. *)
let decisions_for (t : t) (sites : Profile.site array) : int array * int =
  let tbl = Hashtbl.create (List.length t.entries * 2) in
  List.iter
    (fun e -> Hashtbl.replace tbl (e.e_proc, e.e_line, e.e_col, e.e_tdesc) e.e_decision)
    t.entries;
  let matched = ref 0 in
  let codes =
    Array.map
      (fun (s : Profile.site) ->
        match
          Hashtbl.find_opt tbl
            (s.Profile.s_proc, s.Profile.s_line, s.Profile.s_col, s.Profile.s_tdesc)
        with
        | Some d ->
            incr matched;
            decision_code d
        | None -> nursery_code)
      sites
  in
  (codes, !matched)

(** A synthetic policy placing every given site with [decision] — the
    pretenure-all / pool-all configurations the differential tests sweep. *)
let uniform decision (sites : Profile.site array) : t =
  {
    thresholds = default_thresholds;
    entries =
      Array.to_list
        (Array.map
           (fun (s : Profile.site) ->
             {
               e_proc = s.Profile.s_proc;
               e_line = s.Profile.s_line;
               e_col = s.Profile.s_col;
               e_tdesc = s.Profile.s_tdesc;
               e_open = s.Profile.s_open;
               e_decision = decision;
               e_rate = 0.0;
               e_samples = 0;
               e_allocs = 0;
             })
           sites);
  }
