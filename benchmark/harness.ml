(** The parent process: refuses a polluted environment, spawns one fresh
    worker process per preflight, round and traced pass, and collects
    their reports. The parent itself never compiles or executes. *)

module J = Telemetry.Json

(** [MM_*] variables switch collector modes, worker counts, pacing and
    verification behind the benchmark's back. *)
let polluting_env () =
  Array.to_list (Unix.environment ())
  |> List.filter (fun kv -> String.length kv > 3 && String.sub kv 0 3 = "MM_")
  |> List.map (fun kv -> match String.index_opt kv '=' with Some i -> String.sub kv 0 i | None -> kv)

let refuse_polluted_env () =
  match polluting_env () with
  | [] -> ()
  | vars ->
      Printf.eprintf "mmbench: refusing to run with these variables set: %s\n"
        (String.concat " " vars);
      exit 2

(** Run [mmbench worker ARGS] to completion and parse the JSON object on
    the last line of its output. Fails when the worker exits non-zero or
    reports nothing. *)
let spawn args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: "worker" :: args)) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let last =
    String.split_on_char '\n' out |> List.filter (fun l -> String.trim l <> "") |> List.rev
    |> function
    | l :: _ -> Some l
    | [] -> None
  in
  match (status, last) with
  | Unix.WEXITED 0, Some line -> J.parse line
  | _ ->
      failwith
        (Printf.sprintf "worker %s %s" (String.concat " " args)
           (match status with
           | Unix.WEXITED c -> Printf.sprintf "exited with %d" c
           | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
           | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s))

let worker_args ~mode ~workload ~seed ?seconds ?out_dir () =
  [ "--mode"; mode; "--workload"; workload; "--seed"; string_of_int seed ]
  @ (match seconds with Some s -> [ "--seconds"; Printf.sprintf "%g" s ] | None -> [])
  @ match out_dir with Some d -> [ "--out"; d ] | None -> []

(** Idle time before each round. On the shared virtual machine this
    benchmark was built on, a busy virtual CPU ran 1.4x to 2x slower for
    tens of seconds at a time, while one that idled for a moment came back
    at a new speed. Idling before each round gives every round its own
    draw, so each run includes rounds at the machine's quiet speed, and
    its fastest executions are theirs. *)
let idle_between_rounds = 0.25

(** The untimed preflight, then [rounds] rounds of [seconds] each; every
    round starts a fresh worker per workload, in an order rotated each
    round so no workload always runs first or last. *)
type collected = {
  mutable reports : J.t list; (* preflight and rounds, newest first *)
  mutable rounds : J.t list;
  mutable dead : int; (* workers that died without reporting *)
}

let run_plan ~workloads ~seed ~rounds ~seconds =
  let plan = Array.of_list workloads in
  let got = Array.map (fun _ -> { reports = []; rounds = []; dead = 0 }) plan in
  let collect ~round i args =
    let c = got.(i) in
    match spawn args with
    | report ->
        c.reports <- report :: c.reports;
        if round then c.rounds <- report :: c.rounds
    | exception e ->
        prerr_endline ("mmbench: " ^ Printexc.to_string e);
        c.dead <- c.dead + 1
  in
  Array.iteri
    (fun i w -> collect ~round:false i (worker_args ~mode:"preflight" ~workload:w ~seed ()))
    plan;
  let n = Array.length plan in
  for r = 0 to rounds - 1 do
    for k = 0 to n - 1 do
      let i = (k + r) mod n in
      Unix.sleepf idle_between_rounds;
      collect ~round:true i (worker_args ~mode:"round" ~workload:plan.(i) ~seed ~seconds ())
    done
  done;
  List.mapi
    (fun i w ->
      let c = got.(i) in
      Results.aggregate ~workload:w ~reports:(List.rev c.reports) ~rounds:(List.rev c.rounds)
        ~worker_failures:c.dead)
    workloads

(** The traced pass over one workload, in its own worker. *)
let trace_workload ~workload ~seed ~seconds ~out_dir =
  spawn (worker_args ~mode:"trace" ~workload ~seed ~seconds ?out_dir ())

(* --- the environment of a run -------------------------------------------- *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some (String.trim s)
  | exception Sys_error _ -> None

(** The checked-out commit, read from [.git] in the working directory
    without running git; "unknown" outside a git checkout. *)
let git_commit () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match read_file (Filename.concat ".git" ref_) with
      | Some hash -> hash
      | None -> (
          let packed = Option.value ~default:"" (read_file ".git/packed-refs") in
          String.split_on_char '\n' packed
          |> List.find_map (fun line ->
                 match String.split_on_char ' ' line with
                 | [ hash; r ] when r = ref_ -> Some hash
                 | _ -> None)
          |> function
          | Some h -> h
          | None -> "unknown"))
  | Some hash -> hash

let env_json () =
  J.Obj
    [
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("clock_granularity_ns", J.Int (Int64.to_int (Telemetry.Control.granularity_ns ())));
      ("ocaml", J.Str Sys.ocaml_version);
      ("commit", J.Str (git_commit ()));
      ("host", J.Str (Unix.gethostname ()));
    ]
