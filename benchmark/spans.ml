(** The benchmark's own span recorder.

    Spans are kept in memory (not in the telemetry ring, which holds the
    program's own events and drops past 65,536 of them) and written out
    when the traced pass ends. Each span has a name, a start and end on
    the monotonic clock, the span that was open when it began, and the
    execution it belongs to. Recording is off outside the traced pass, so
    the untraced measurements pay one flag test per layer call. *)

type span = {
  name : string;
  start : int64;
  mutable stop : int64;
  parent : int; (* index of the enclosing span; -1 at top level *)
  exec : int; (* execution id; -1 for set-up *)
}

let dummy = { name = ""; start = 0L; stop = 0L; parent = -1; exec = -1 }
let log = ref (Support.Growarr.create ~dummy)
let stack : int list ref = ref []
let enabled = ref false
let exec_id = ref (-1)
let now = Telemetry.Control.now_ns

let clear () =
  log := Support.Growarr.create ~dummy;
  stack := [];
  exec_id := -1

let parent () = match !stack with i :: _ -> i | [] -> -1

(** [time name f] runs [f] inside a span named [name] when recording. *)
let time name f =
  if not !enabled then f ()
  else begin
    let id =
      Support.Growarr.push !log
        { name; start = now (); stop = 0L; parent = parent (); exec = !exec_id }
    in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        (Support.Growarr.get !log id).stop <- now ();
        stack := List.tl !stack)
      f
  end

(** Record a span the caller timed itself (a pause, timed by its hook),
    as a child of the innermost open span. *)
let record name t0 t1 =
  if !enabled then
    ignore
      (Support.Growarr.push !log
         { name; start = t0; stop = t1; parent = parent (); exec = !exec_id })

let recorded () = Support.Growarr.to_array !log
let duration s = Int64.sub s.stop s.start

(** Total duration of the spans named [name] in execution [exec]. *)
let total (spans : span array) ~exec name =
  Array.fold_left
    (fun acc s -> if s.exec = exec && s.name = name then Int64.add acc (duration s) else acc)
    0L spans

(** Per span name, in first-seen order: the number of spans, their total
    duration, and their self time — each span's duration minus the part
    its child spans cover. Self times over a tree sum to its root's
    duration. *)
let self_times (spans : span array) : (string * int * int64 * int64) list =
  let children = Array.make (Array.length spans) 0L in
  Array.iter
    (fun s -> if s.parent >= 0 then children.(s.parent) <- Int64.add children.(s.parent) (duration s))
    spans;
  let tbl = Hashtbl.create 16 and order = ref [] in
  Array.iteri
    (fun i s ->
      let n, total, self =
        match Hashtbl.find_opt tbl s.name with
        | Some v -> v
        | None ->
            order := s.name :: !order;
            (0, 0L, 0L)
      in
      Hashtbl.replace tbl s.name
        (n + 1, Int64.add total (duration s), Int64.add self (Int64.sub (duration s) children.(i))))
    spans;
  List.rev_map
    (fun name ->
      let n, total, self = Hashtbl.find tbl name in
      (name, n, total, self))
    !order

(** Chrome [trace_event] JSON with balanced B/E pairs, the format
    [tools/validate_trace] checks. Spans are emitted in start order; a
    span's parent is always open when it begins. *)
let to_chrome (spans : span array) : Telemetry.Json.t =
  let module J = Telemetry.Json in
  let order = Array.init (Array.length spans) Fun.id in
  Array.stable_sort (fun a b -> Int64.compare spans.(a).start spans.(b).start) order;
  let events = ref [] in
  let emit ph name ts args =
    let base =
      [
        ("name", J.Str name);
        ("cat", J.Str "mmbench");
        ("ph", J.Str ph);
        ("ts", J.Float (Telemetry.Control.ns_to_us ts));
        ("pid", J.Int 1);
        ("tid", J.Int 1);
      ]
    in
    events := J.Obj (if args = [] then base else base @ [ ("args", J.Obj args) ]) :: !events
  in
  let open_ = ref [] in
  let close_until parent =
    let rec go () =
      match !open_ with
      | i :: rest when i <> parent ->
          emit "E" spans.(i).name spans.(i).stop [];
          open_ := rest;
          go ()
      | _ -> ()
    in
    go ()
  in
  Array.iter
    (fun i ->
      let s = spans.(i) in
      close_until s.parent;
      emit "B" s.name s.start (if s.exec >= 0 then [ ("exec", J.Int s.exec) ] else []);
      open_ := i :: !open_)
    order;
  close_until (-1);
  J.Obj [ ("traceEvents", J.List (List.rev !events)); ("displayTimeUnit", J.Str "ms") ]

(** Relative gap between the program's own account of a time (its phase
    histograms) and the benchmark's outside measure of the same calls. *)
let ledger_gap ~inside ~outside =
  if outside <= 0.0 then 0.0 else Float.abs (inside -. outside) /. outside
