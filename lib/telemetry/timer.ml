(** Wall-clock timing of named program phases (compiler passes, codegen,
    table encoding).

    [time name f] runs [f], records a {!Trace} span (so the pass appears in
    Chrome exports nested under whatever is open) and accumulates the
    duration in its own first-use-ordered table, which [mmc --timings] and
    the bench harness print. Disabled telemetry makes [time] a plain call. *)

type entry = { t_name : string; mutable t_count : int; mutable t_total_ns : int64 }

let table : (string, entry) Hashtbl.t = Hashtbl.create 32
let order : string list ref = ref []

let entry name =
  match Hashtbl.find_opt table name with
  | Some e -> e
  | None ->
      let e = { t_name = name; t_count = 0; t_total_ns = 0L } in
      Hashtbl.replace table name e;
      order := name :: !order;
      e

let record name ns =
  let e = entry name in
  e.t_count <- e.t_count + 1;
  e.t_total_ns <- Int64.add e.t_total_ns ns

let time ?(cat = "timer") name f =
  if not (Control.on ()) then f ()
  else begin
    Trace.begin_span ~cat name;
    let t0 = Control.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        record name (Int64.sub (Control.now_ns ()) t0);
        Trace.end_span ())
      f
  end

let clear () =
  Hashtbl.reset table;
  order := []

(** Entries in first-use order: (name, count, total ns). *)
let entries () : (string * int * int64) list =
  List.rev_map
    (fun name ->
      let e = Hashtbl.find table name in
      (e.t_name, e.t_count, e.t_total_ns))
    !order

let summary_lines () : string list =
  List.map
    (fun (name, n, total) ->
      Printf.sprintf "%-28s %4d run(s) %12.0f us" name n (Control.ns_to_us total))
    (entries ())

let to_text () = String.concat "\n" (summary_lines ()) ^ "\n"
