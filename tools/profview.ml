(* profview — render a human-readable report from an mmrun --profile JSON
   document: collection counts and the top allocation sites by survived
   words (the pretenuring signal). Pause times are mmrun --gc-stats's.

     profview profile.json
     profview --top 20 profile.json
     profview --sort survival profile.json

   Exit 0 on success; prints the failure and exits 1 otherwise. *)

module J = Telemetry.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("profview: " ^ m); exit 1) fmt

let num = function Some (J.Int i) -> float_of_int i | Some (J.Float f) -> f | _ -> 0.0
let int_of v = int_of_float (num v)
let str = function Some (J.Str s) -> s | _ -> ""
let bool_of = function Some (J.Bool b) -> b | _ -> false

let usage () =
  prerr_endline "usage: profview [--top N] [--sort survived|survival] PROFILE.json";
  exit 2

let () =
  let top, sort, path =
    let rec parse top sort = function
      | "--top" :: n :: rest -> (
          match int_of_string_opt n with
          | Some n when n > 0 -> parse n sort rest
          | _ -> fail "--top wants a positive integer, got %s" n)
      | "--sort" :: key :: rest -> (
          match key with
          | "survived" | "survival" -> parse top key rest
          | _ -> fail "--sort wants survived or survival, got %s" key)
      | [ path ] -> (top, sort, path)
      | _ -> usage ()
    in
    parse 10 "survived" (List.tl (Array.to_list Sys.argv))
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
  let schema = str (J.member "schema" doc) in
  if schema <> "mm-profile" then fail "%s: not an mm-profile document (schema %S)" path schema;
  Printf.printf "profile      : %s (schema %s v%d)\n" path schema
    (int_of (J.member "version" doc));
  (match J.member "collections" doc with
  | Some c ->
      Printf.printf "collections  : %d total (%d minor, %d full)\n"
        (int_of (J.member "total" c))
        (int_of (J.member "minor" c))
        (int_of (J.member "full" c))
  | None -> ());
  (* --- top sites --- *)
  let sites = Option.value ~default:[] (Option.bind (J.member "sites" doc) J.to_list) in
  let survived s =
    int_of (J.member "minor_survived_words" s) + int_of (J.member "full_survived_words" s)
  in
  (* Completed-lifetime words — the sample mass behind a site's survival
     rate. A site whose every object is still in flight (nothing has yet
     survived a collection or died in one) has no rate at all, which is
     not the same thing as 100%. *)
  let samples s = survived s + int_of (J.member "dead_words" s) in
  let rate s =
    if samples s = 0 then None
    else Some (float_of_int (survived s) /. float_of_int (samples s))
  in
  let key =
    match sort with
    | "survival" ->
        (* Rate-sorted: sites with a measured rate first (highest rate,
           then heaviest sample mass); unmeasured sites sink to the end. *)
        fun s -> (Option.value ~default:(-1.0) (rate s), float_of_int (samples s))
    | _ -> fun s -> (float_of_int (survived s), float_of_int (int_of (J.member "alloc_words" s)))
  in
  let ranked =
    sites
    |> List.filter (fun s -> int_of (J.member "allocs" s) > 0)
    |> List.sort (fun a b -> compare (key b) (key a))
  in
  Printf.printf "sites        : %d static, %d hit (sorted by %s)\n" (List.length sites)
    (List.length ranked) sort;
  if ranked <> [] then begin
    Printf.printf "%4s %-24s %9s %10s %10s %10s %9s  %s\n" "id" "site" "allocs" "words"
      "survived" "samples" "survival" "";
    List.iteri
      (fun i s ->
        if i < top then
          Printf.printf "%4d %-24s %9d %10d %10d %10d %9s  %s\n"
            (int_of (J.member "id" s))
            (Printf.sprintf "%s:%d:%d" (str (J.member "proc" s))
               (int_of (J.member "line" s))
               (int_of (J.member "col" s)))
            (int_of (J.member "allocs" s))
            (int_of (J.member "alloc_words" s))
            (survived s) (samples s)
            (match rate s with
            | None -> "-"
            | Some r -> Printf.sprintf "%.1f%%" (100.0 *. r))
            (if bool_of (J.member "open_array" s) then "open" else ""))
      ranked
  end
