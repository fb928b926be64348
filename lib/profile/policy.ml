(** Profile-guided placement policy: turn measured per-site lifetimes into
    per-site allocation decisions.

    The measurement half lives in {!Profile}: every allocation site carries
    its survival rate (words copied out of an evacuated region over words
    that had the chance to die there). This module is the decision half —
    the classifier that maps a site's measured rate and sample mass onto
    one of two placements:

    - {e nursery}: the default. Allocate in the nursery and let minor
      collections sort the wheat from the chaff. Every site starts here,
      and every site without enough completed lifetimes to judge stays
      here — a low-confidence pretenure is worse than none, because a
      wrongly pretenured short-lived object is immortal until the next
      full collection.
    - {e pretenure}: the site's objects overwhelmingly survive, so paying
      the copy to promote them one at a time is pure waste. Allocate
      directly in the old generation.

    A policy is derived either from a live profiler (a training run in
    the same process) or from the [mm-profile] document that [mmrun
    --profile] writes. Sites are keyed by the stable (proc, line, col,
    tdesc) tuple rather than by site id, so a profile of one build maps
    onto an image recompiled with different optimization flags (site
    {e ids} are assigned in lowering order and may shift; source
    positions and the allocated type do not). *)

module J = Telemetry.Json

type decision = Nursery | Pretenure

(** The survival-rate floor for leaving the nursery. *)
let pretenure_rate = 0.8

(** The confidence floor: a site must have seen at least this many words
    complete a lifetime (survive or die) before its rate is trusted. *)
let min_sample_words = 64

(** One classified site: its stable key and its decision. *)
type entry = { e_proc : string; e_line : int; e_col : int; e_tdesc : int; e_decision : decision }

type t = entry list

(** The classifier itself, shared by a parsed [mm-profile] document and a
    live {!Profile.t} side table — one function, so both give exactly the
    same decisions from the same counts. *)
let classify ~survived_words ~dead_words =
  let samples = survived_words + dead_words in
  if samples < min_sample_words then Nursery
  else if float_of_int survived_words /. float_of_int samples < pretenure_rate then Nursery
  else Pretenure

(** Derive a policy from a live profiler side table (a training run in
    the same process, as the gen-pgo benchmark takes). *)
let derive_from_stats (p : Profile.t) : t =
  List.init (Array.length p.Profile.sites) (fun i ->
      let s = p.Profile.sites.(i) and st = p.Profile.stats.(i) in
      {
        e_proc = s.Profile.s_proc;
        e_line = s.Profile.s_line;
        e_col = s.Profile.s_col;
        e_tdesc = s.Profile.s_tdesc;
        e_decision =
          classify
            ~survived_words:(st.Profile.st_minor_words + st.Profile.st_full_words)
            ~dead_words:st.Profile.st_dead_words;
      })

exception Policy_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Policy_error m)) fmt

(** Derive a policy from a parsed [mm-profile] document (the output of
    [mmrun --profile]).
    @raise Policy_error when the document is not an mm-profile. *)
let derive_from_profile (doc : J.t) : t =
  (match J.member "schema" doc with
  | Some (J.Str "mm-profile") -> ()
  | Some (J.Str s) -> fail "not an mm-profile document (schema %S)" s
  | _ -> fail "not an mm-profile document (no schema)");
  let sites =
    match Option.bind (J.member "sites" doc) J.to_list with
    | Some sites -> sites
    | None -> fail "mm-profile document has no sites array"
  in
  let int k s = match J.member k s with Some (J.Int i) -> i | _ -> 0 in
  List.map
    (fun s ->
      {
        e_proc = (match J.member "proc" s with Some (J.Str p) -> p | _ -> "");
        e_line = int "line" s;
        e_col = int "col" s;
        e_tdesc = int "tdesc" s;
        e_decision =
          classify
            ~survived_words:(int "minor_survived_words" s + int "full_survived_words" s)
            ~dead_words:(int "dead_words" s);
      })
    sites

(* ------------------------------------------------------------------ *)
(* Mapping a policy onto an image                                      *)
(* ------------------------------------------------------------------ *)

(* The per-site decision codes the allocator consults (O(1) array index on
   the allocation fast path; see Vm.Interp). *)
let nursery_code = 0
let pretenure_code = 1

let decision_code = function Nursery -> nursery_code | Pretenure -> pretenure_code

(** Map a policy onto an image's static site table: a decision-code array
    indexed by site id. Sites are matched by the stable
    (proc, line, col, tdesc) key; unmatched sites default to the nursery,
    so a profile from an older build degrades gracefully rather than
    failing. Returns the array and the number of sites matched. *)
let decisions_for (t : t) (sites : Profile.site array) : int array * int =
  let tbl = Hashtbl.create (List.length t * 2) in
  List.iter
    (fun e -> Hashtbl.replace tbl (e.e_proc, e.e_line, e.e_col, e.e_tdesc) e.e_decision)
    t;
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
    pretenure-all configuration the differential tests sweep. *)
let uniform decision (sites : Profile.site array) : t =
  Array.to_list
    (Array.map
       (fun (s : Profile.site) ->
         {
           e_proc = s.Profile.s_proc;
           e_line = s.Profile.s_line;
           e_col = s.Profile.s_col;
           e_tdesc = s.Profile.s_tdesc;
           e_decision = decision;
         })
       sites)
