(* policygen — derive an mm-policy placement file from an mmrun --profile
   document: classify every allocation site by its measured survival rate
   and sample mass into nursery or pretenure placement, and print the
   versioned mm-policy v2 JSON that mmrun --policy consumes.

     policygen profile.json > policy.json
     policygen -o policy.json profile.json
     policygen --pretenure-rate 0.9 --min-sample-words 128 profile.json

   The thresholds are the same knobs Policy.default_thresholds bakes in;
   the flags exist so a closed PGO loop can be tuned without recompiling.
   Exit 0 on success; prints the failure and exits 1 otherwise. *)

module J = Telemetry.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("policygen: " ^ m); exit 1) fmt

let usage () =
  prerr_endline
    "usage: policygen [-o FILE] [--pretenure-rate R] [--min-sample-words N] PROFILE.json";
  exit 2

let () =
  let th = ref Policy.default_thresholds in
  let out = ref None in
  let path = ref None in
  let float_arg name v k =
    match float_of_string_opt v with
    | Some f when f >= 0.0 && f <= 1.0 -> k f
    | _ -> fail "%s wants a rate in [0,1], got %s" name v
  in
  let int_arg name v k =
    match int_of_string_opt v with
    | Some n when n >= 0 -> k n
    | _ -> fail "%s wants a non-negative integer, got %s" name v
  in
  let rec parse = function
    | [] -> ()
    | "-o" :: f :: rest ->
        out := Some f;
        parse rest
    | "--pretenure-rate" :: v :: rest ->
        float_arg "--pretenure-rate" v (fun f ->
            th := { !th with Policy.pretenure_rate = f });
        parse rest
    | "--min-sample-words" :: v :: rest ->
        int_arg "--min-sample-words" v (fun n ->
            th := { !th with Policy.min_sample_words = n });
        parse rest
    | [ p ] when !path = None -> path := Some p
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let path = match !path with Some p -> p | None -> usage () in
  let contents =
    try
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    with Sys_error m -> fail "%s" m
  in
  let doc = try J.parse contents with J.Parse_error m -> fail "%s: %s" path m in
  let policy =
    try Policy.derive_from_profile ~thresholds:!th doc
    with Policy.Policy_error m -> fail "%s: %s" path m
  in
  let n_of d =
    List.length (List.filter (fun e -> e.Policy.e_decision = d) policy.Policy.entries)
  in
  Printf.eprintf "policygen: %d sites — %d pretenure, %d nursery\n"
    (List.length policy.Policy.entries)
    (n_of Policy.Pretenure) (n_of Policy.Nursery);
  let text = J.to_string (Policy.to_json policy) ^ "\n" in
  match !out with
  | None -> print_string text
  | Some f ->
      let oc = open_out f in
      output_string oc text;
      close_out oc
