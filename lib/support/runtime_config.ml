(** The runtime configuration: the only code that reads an [MM_*]
    environment variable, and the one function that resolves a collector
    request over what it read.

    Five variables remain. Each is a suite-wide default that the
    Makefile's test matrix and CI export for a whole test run:
    - [MM_GEN] / [MM_GC_INCREMENTAL]: the default precise collector
      becomes the generational / incremental one;
    - [MM_THREADED]: the threaded engine (on unless set off);
    - [MM_VERIFY_HEAP] / [MM_VERIFY_PRE]: the heap verifier after /
      before every collection.

    One parser reads every value: [1|true|yes|on] is on,
    [0|false|no|off] is off, and an empty value is the same as an unset
    one. Anything else, and any contradictory request, is a
    {!Config_error}; nothing is dropped or decided by a hidden
    precedence. *)

type t = {
  gen : bool;
  incremental : bool;
  threaded : bool;
  verify_heap : bool;
  verify_pre : bool;
}

type error =
  | Bad_value of { setting : string; value : string; expected : string }
  | Conflict of { first : string; second : string; reason : string }

exception Config_error of error

let message = function
  | Bad_value { setting; value; expected } ->
      Printf.sprintf "%s: bad value %S (expected %s)" setting value expected
  | Conflict { first; second; reason } ->
      Printf.sprintf "%s and %s cannot be combined: %s" first second reason

(** The process exit status for a configuration error, next to the
    runtime failure classes' 10–15. *)
let exit_code = 16

let fail e = raise (Config_error e)

let switch lookup name ~default =
  match lookup name with
  | None | Some "" -> default
  | Some ("1" | "true" | "yes" | "on") -> true
  | Some ("0" | "false" | "no" | "off") -> false
  | Some value -> fail (Bad_value { setting = name; value; expected = "1|true|yes|on or 0|false|no|off" })

(** Parse the five variables through [lookup] (tests pass an association
    list's [List.assoc_opt]). @raise Config_error on a bad value, or when
    both collector modes are set. *)
let of_lookup lookup =
  let off name = switch lookup name ~default:false in
  let gen = off "MM_GEN" in
  let incremental = off "MM_GC_INCREMENTAL" in
  let threaded = switch lookup "MM_THREADED" ~default:true in
  let verify_heap = off "MM_VERIFY_HEAP" in
  let verify_pre = off "MM_VERIFY_PRE" in
  if gen && incremental then
    fail
      (Conflict
         { first = "MM_GEN"; second = "MM_GC_INCREMENTAL"; reason = "each replaces the default collector" });
  { gen; incremental; threaded; verify_heap; verify_pre }

let parsed = lazy (of_lookup Sys.getenv_opt)

(** The process environment, parsed once. @raise Config_error as
    {!of_lookup}, at every call. *)
let env () = Lazy.force parsed

type collector = Precise | Generational | Incremental | Conservative | No_gc

(** Only the copying collectors move objects, so only they end a copying
    collection, where a census is taken. *)
let moving = function Precise | Generational -> true | Incremental | Conservative | No_gc -> false

(** [--collector]'s names, aliases included. *)
let collector_names =
  [ ("precise", Precise); ("generational", Generational); ("gen", Generational);
    ("incremental", Incremental); ("inc", Incremental); ("conservative", Conservative);
    ("none", No_gc) ]

let collector_name c = fst (List.find (fun (_, c') -> c' = c) collector_names)

(** Resolve a request over [config] into the collector to install. Each
    part of the request carries the name it was given under, so an error
    names both settings:
    - [collectors]: explicit collector choices. [Precise] is the default,
      which [MM_GEN] or [MM_GC_INCREMENTAL] replaces; any other choice
      stands, and two different ones conflict.
    - [census]: an explicit census request, which a non-moving collector
      refuses, and which needs [profile], the setting that asks for the
      profile document a census is written into.
    - [needs]: [(setting, c)] for each given setting that only collector
      [c] reads (a nursery size or a policy, generational; a pause
      budget, incremental). Under any other collector it would be
      silently dropped, so it is refused.
    - [gc_unsafe]: the setting that built the image without gc
      restrictions (§6.2). Its code may hold pointers the tables cannot
      describe, so only a run with no collector may execute it.
    - [bounds]: [(setting, value, least)]; a given value below [least]
      is out of range.
    @raise Config_error *)
let resolve ?(collectors = []) ?census ?profile ?(needs = []) ?gc_unsafe ?(bounds = [])
    config =
  List.iter
    (function
      | setting, Some v, least when v < least ->
          let expected = Printf.sprintf "at least %d" least in
          fail (Bad_value { setting; value = string_of_int v; expected })
      | _ -> ())
    bounds;
  let source, collector =
    match List.filter (fun (_, c) -> c <> Precise) collectors with
    | (first, c) :: rest -> (
        match List.find_opt (fun (_, c') -> c' <> c) rest with
        | Some (second, _) -> fail (Conflict { first; second; reason = "each selects a different collector" })
        | None -> (first, c))
    | [] when config.gen -> ("MM_GEN", Generational)
    | [] when config.incremental -> ("MM_GC_INCREMENTAL", Incremental)
    | [] -> ("the precise collector", Precise)
  in
  if not (moving collector) then
    Option.iter
      (fun second ->
        let reason = "censuses are taken where a copying collection ends, which this collector never runs" in
        fail (Conflict { first = source; second; reason }))
      census;
  (match (census, profile) with
  | Some first, None ->
      let reason = "a census is written only into the profile document" in
      fail (Conflict { first; second = "no --profile"; reason })
  | _ -> ());
  if collector <> No_gc then
    Option.iter
      (fun second ->
        let reason = "its code may hold pointers the gc tables cannot describe, so a collection may corrupt the heap" in
        fail (Conflict { first = source; second; reason }))
      gc_unsafe;
  List.iter
    (fun (second, c) ->
      if c <> collector then
        let reason = Printf.sprintf "only the %s collector reads it" (collector_name c) in
        fail (Conflict { first = source; second; reason }))
    needs;
  collector
