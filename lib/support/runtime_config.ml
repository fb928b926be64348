(** The runtime configuration: the one function that resolves a
    collector request, and the refusal of an ambient one.

    A run is configured by what its caller names (mmrun's flags, or a
    test's arguments); no environment variable changes the collector,
    the engine or the verifier. A script that still exports an [MM_*]
    variable is refused rather than silently ignored. Every contradictory
    request is a {!Config_error}; nothing is dropped or decided by a
    hidden precedence. *)

type error =
  | Bad_value of { setting : string; value : string; expected : string }
  | Conflict of { first : string; second : string; reason : string }
  | Environment of string list  (** the [MM_*] variables that are set *)

exception Config_error of error

let message = function
  | Bad_value { setting; value; expected } ->
      Printf.sprintf "%s: bad value %S (expected %s)" setting value expected
  | Conflict { first; second; reason } ->
      Printf.sprintf "%s and %s cannot be combined: %s" first second reason
  | Environment vars ->
      Printf.sprintf
        "%s set: no environment variable configures a run; name the collector, engine and \
         verifier with --collector, --no-threaded, --verify-heap and --verify-pre"
        (String.concat ", " vars)

(** The process exit status for a configuration error, next to the
    runtime failure classes' 10–15. *)
let exit_code = 16

let fail e = raise (Config_error e)

(** Refuse an environment (the process's by default) that sets any
    variable named [MM_*]. @raise Config_error *)
let refuse_environment ?(env = Unix.environment ()) () =
  let name kv = match String.index_opt kv '=' with Some i -> String.sub kv 0 i | None -> kv in
  match List.filter (String.starts_with ~prefix:"MM_") (List.map name (Array.to_list env)) with
  | [] -> ()
  | vars -> fail (Environment vars)

type collector = Precise | Generational | Incremental | Conservative | No_gc

(** [--collector]'s names, aliases included. *)
let collector_names =
  [ ("precise", Precise); ("generational", Generational); ("gen", Generational);
    ("incremental", Incremental); ("inc", Incremental); ("conservative", Conservative);
    ("none", No_gc) ]

let collector_name c = fst (List.find (fun (_, c') -> c' = c) collector_names)

(** Resolve a request into the collector to install. Each part of the
    request carries the name it was given under, so an error names both
    settings:
    - [collector]: the collector chosen; the precise one when none is.
    - [needs]: [(setting, c)] for each given setting that only collector
      [c] reads (a nursery size or a placement, generational; a pause
      budget, incremental). Under any other collector it would be
      silently dropped, so it is refused.
    - [gc_unsafe]: the setting that built the image without gc
      restrictions (§6.2). Its code may hold pointers the tables cannot
      describe, so only a run with no collector may execute it.
    - [bounds]: [(setting, value, least)]; a given value below [least]
      is out of range.
    @raise Config_error *)
let resolve ?(collector = ("the precise collector", Precise)) ?(needs = []) ?gc_unsafe
    ?(bounds = []) () =
  List.iter
    (function
      | setting, Some v, least when v < least ->
          let expected = Printf.sprintf "at least %d" least in
          fail (Bad_value { setting; value = string_of_int v; expected })
      | _ -> ())
    bounds;
  let source, collector = collector in
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
