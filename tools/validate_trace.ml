(* validate_trace — smoke-check a Chrome trace_event JSON file emitted by
   `mmrun --trace`: the document must parse, carry a traceEvents array with
   balanced B/E spans, and (when phases are requested) contain every named
   span at least once.

     validate_trace t.json
     validate_trace t.json gc.stackwalk gc.underive gc.copy gc.rederive

   With --profile it instead validates an mmrun --profile document: schema
   name and version, every site id resolving to a source location, survival
   rates in [0,1], and no site crediting more deaths (objects or words) than
   it allocated.

     validate_trace --profile p.json

   Exit 0 on success; prints the failure and exits 1 otherwise. Used by
   `make check` / CI. *)

module J = Telemetry.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("validate_trace: " ^ m); exit 1) fmt

let num = function Some (J.Int i) -> Some (float_of_int i) | Some (J.Float f) -> Some f | _ -> None

let validate_profile path doc =
  (match J.member "schema" doc with
  | Some (J.Str "mm-profile") -> ()
  | _ -> fail "%s: schema is not \"mm-profile\"" path);
  (match J.member "version" doc with
  | Some (J.Int 1) -> ()
  | _ -> fail "%s: unsupported profile version (want 1)" path);
  let sites =
    match Option.bind (J.member "sites" doc) J.to_list with
    | Some ss -> ss
    | None -> fail "%s: no sites array" path
  in
  let nsites = List.length sites in
  List.iteri
    (fun i s ->
      (match J.member "id" s with
      | Some (J.Int id) when id = i -> ()
      | _ -> fail "%s: site %d: id does not match its index" path i);
      (* Every site id must resolve to a source location. *)
      (match (J.member "proc" s, J.member "line" s) with
      | Some (J.Str proc), Some (J.Int line) when proc <> "" && line >= 1 -> ()
      | _ -> fail "%s: site %d: missing or empty source location" path i);
      (match num (J.member "survival_rate" s) with
      | Some r when r >= 0.0 && r <= 1.0 -> ()
      | _ -> fail "%s: site %d: survival_rate outside [0,1]" path i);
      (* An object dies at most once: more deaths than allocations means a
         death was credited twice. *)
      let int key =
        match J.member key s with
        | Some (J.Int n) -> n
        | _ -> fail "%s: site %d: no integer %s" path i key
      in
      if int "dead_objects" > int "allocs" then
        fail "%s: site %d: dead_objects %d exceed allocs %d" path i (int "dead_objects")
          (int "allocs");
      if int "dead_words" > int "alloc_words" then
        fail "%s: site %d: dead_words %d exceed alloc_words %d" path i (int "dead_words")
          (int "alloc_words"))
    sites;
  Printf.printf "validate_trace: %s ok (profile: %d sites)\n" path nsites

let () =
  let profile_mode, path, required =
    match Array.to_list Sys.argv with
    | _ :: "--profile" :: path :: rest -> (true, path, rest)
    | _ :: path :: rest -> (false, path, rest)
    | _ ->
        prerr_endline "usage: validate_trace [--profile] FILE.json [required-span-name...]";
        exit 2
  in
  let contents =
    try
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    with Sys_error m -> fail "%s" m
  in
  let doc = try J.parse contents with J.Parse_error m -> fail "%s: %s" path m in
  if profile_mode then begin
    validate_profile path doc;
    exit 0
  end;
  let events =
    match Option.bind (J.member "traceEvents" doc) J.to_list with
    | Some evs -> evs
    | None -> fail "%s: no traceEvents array" path
  in
  let begins = Hashtbl.create 16 in
  let depth = ref 0 in
  List.iter
    (fun ev ->
      let str k = Option.bind (J.member k ev) J.to_str in
      match str "ph" with
      | Some "B" ->
          incr depth;
          (match str "name" with
          | Some n -> Hashtbl.replace begins n (1 + Option.value ~default:0 (Hashtbl.find_opt begins n))
          | None -> fail "%s: B event without a name" path)
      | Some "E" ->
          decr depth;
          if !depth < 0 then fail "%s: E event with no open span" path
      | Some _ -> ()
      | None -> fail "%s: event without ph" path)
    events;
  if !depth <> 0 then fail "%s: %d span(s) left open" path !depth;
  List.iter
    (fun name ->
      if not (Hashtbl.mem begins name) then fail "%s: required span %s missing" path name)
    required;
  Printf.printf "validate_trace: %s ok (%d events, %d distinct spans)\n" path
    (List.length events) (Hashtbl.length begins)
