(** Named monotonic counters and histograms.

    The registry is global and handles are stable: a probe site resolves
    its handle once (e.g. in a module-level [lazy]) and the handle stays
    valid across {!reset}, which zeroes values but never unregisters.
    Histograms retain their raw samples (capped) so per-event reporting —
    e.g. [mmrun --gc-stats]'s per-collection table — can read individual
    observations back instead of keeping a parallel log. *)

type counter = { c_name : string; mutable c_value : int }

type histogram = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  mutable h_samples : float array; (* grows; reservoir of the stream *)
  h_buckets : int array; (* log-scaled bucket counts; length n_buckets *)
  mutable h_prng : Support.Prng.t; (* reservoir replacement source *)
}

(* Retain at most this many raw samples per histogram. Below the cap the
   reservoir holds the whole stream in arrival order; past it, samples are
   replaced uniformly at random (algorithm R), so the retained set stays an
   unbiased sample of the full stream. count/sum/min/max/buckets keep
   accumulating past the cap. *)
let max_samples = 65536

(* Every histogram's reservoir uses the same deterministic seed: two
   histograms fed the same number of observations replace the same indices,
   which keeps parallel per-event arrays (e.g. the --gc-stats per-collection
   table reading several gc.* histograms positionally) row-aligned even
   past the cap. *)
let reservoir_seed = 0x6d687267 (* "mhrg" *)

(* --- log-scaled buckets (HdrHistogram-style) ---

   Bucket 0 holds values below 1.0; past that, each power-of-two octave
   [2^o, 2^(o+1)) is split into [n_sub] equal sub-buckets, giving a
   constant relative error of 1/n_sub (25%) at every magnitude. 256
   buckets at 4 sub-buckets per octave span 63 octaves — more than the
   dynamic range of an int64 nanosecond clock — in 2 KiB per histogram,
   so quantiles never need the raw samples and cannot be biased by the
   sample cap. *)

let n_sub = 4
let n_buckets = 256

let bucket_index v =
  if not (v >= 1.0) then 0 (* v < 1, and NaN *)
  else begin
    let m, e = Float.frexp v in
    (* v = m * 2^e with m in [0.5, 1), so e >= 1 here. *)
    let sub = int_of_float ((m -. 0.5) *. 2.0 *. float_of_int n_sub) in
    let sub = if sub < 0 then 0 else if sub >= n_sub then n_sub - 1 else sub in
    let idx = ((e - 1) * n_sub) + sub + 1 in
    if idx >= n_buckets then n_buckets - 1 else idx
  end

(** Inclusive lower bound of a bucket. *)
let bucket_lo i =
  if i <= 0 then 0.0
  else
    let o = (i - 1) / n_sub and s = (i - 1) mod n_sub in
    Float.ldexp (1.0 +. (float_of_int s /. float_of_int n_sub)) o

(** Exclusive upper bound of a bucket (infinity for the last). *)
let bucket_hi i = if i >= n_buckets - 1 then infinity else bucket_lo (i + 1)

type metric = Counter of counter | Histogram of histogram

(* Registration order is preserved for reporting. *)
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let order : string list ref = ref []

let register name m =
  Hashtbl.replace registry name m;
  order := name :: !order

let find name = Hashtbl.find_opt registry name

let counter name : counter =
  match find name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg (name ^ " is registered as a non-counter metric")
  | None ->
      let c = { c_name = name; c_value = 0 } in
      register name (Counter c);
      c

let histogram name : histogram =
  match find name with
  | Some (Histogram h) -> h
  | Some _ -> invalid_arg (name ^ " is registered as a non-histogram metric")
  | None ->
      let h =
        {
          h_name = name;
          h_count = 0;
          h_sum = 0.0;
          h_min = infinity;
          h_max = neg_infinity;
          h_samples = [||];
          h_buckets = Array.make n_buckets 0;
          h_prng = Support.Prng.create reservoir_seed;
        }
      in
      register name (Histogram h);
      h

(* --- recording (all gated on the master switch) --- *)

let incr ?(by = 1) (c : counter) = if Control.on () then c.c_value <- c.c_value + by

(** Add to a counter looked up by name — for cold paths. *)
let add name n =
  if Control.on () then begin
    let c = counter name in
    c.c_value <- c.c_value + n
  end

let observe (h : histogram) v =
  if Control.on () then begin
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    let b = bucket_index v in
    h.h_buckets.(b) <- h.h_buckets.(b) + 1;
    let i = h.h_count - 1 in
    if i < max_samples then begin
      if i >= Array.length h.h_samples then begin
        let cap = max 16 (min max_samples (2 * Array.length h.h_samples)) in
        let bigger = Array.make cap 0.0 in
        Array.blit h.h_samples 0 bigger 0 (Array.length h.h_samples);
        h.h_samples <- bigger
      end;
      h.h_samples.(i) <- v
    end
    else begin
      (* Reservoir replacement: keep each of the i+1 observations so far
         with equal probability max_samples/(i+1). *)
      let j = Support.Prng.int h.h_prng (i + 1) in
      if j < max_samples then h.h_samples.(j) <- v
    end
  end

let observe_ns (h : histogram) ns = observe h (Int64.to_float ns)

(* --- reading --- *)

let value (c : counter) = c.c_value

(** Counter value by name; 0 if never registered. *)
let counter_value name =
  match find name with Some (Counter c) -> c.c_value | _ -> 0

let samples (h : histogram) : float array =
  Array.sub h.h_samples 0 (min h.h_count max_samples)

let mean (h : histogram) = if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count

(** Histogram handle by name; [None] if absent or registered otherwise. *)
let find_histogram name =
  match find name with Some (Histogram h) -> Some h | _ -> None

(** Quantile [q] in [0,1] from the bucket counts — exact to within one
    sub-bucket (25% relative error bound), unaffected by the sample cap.
    Returns the bucket's upper bound clamped to the observed [min,max], so
    [percentile h 1.0] is exactly [h.h_max]. *)
let percentile (h : histogram) q =
  if h.h_count = 0 then 0.0
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int h.h_count)) in
    let rank = if rank < 1 then 1 else if rank > h.h_count then h.h_count else rank in
    let idx = ref (n_buckets - 1) in
    let cum = ref 0 in
    (try
       for i = 0 to n_buckets - 1 do
         cum := !cum + h.h_buckets.(i);
         if !cum >= rank then begin
           idx := i;
           raise Exit
         end
       done
     with Exit -> ());
    let v = bucket_hi !idx in
    if v < h.h_min then h.h_min else if v > h.h_max then h.h_max else v
  end

(** Non-empty buckets as [(lo, hi, count)], in increasing value order.
    The counts sum to [h.h_count]. *)
let nonzero_buckets (h : histogram) : (float * float * int) list =
  let acc = ref [] in
  for i = n_buckets - 1 downto 0 do
    if h.h_buckets.(i) > 0 then acc := (bucket_lo i, bucket_hi i, h.h_buckets.(i)) :: !acc
  done;
  !acc

(* --- lifecycle --- *)

(** Zero every metric; handles remain valid. *)
let reset () =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> c.c_value <- 0
      | Histogram h ->
          h.h_count <- 0;
          h.h_sum <- 0.0;
          h.h_min <- infinity;
          h.h_max <- neg_infinity;
          Array.fill h.h_buckets 0 n_buckets 0;
          h.h_prng <- Support.Prng.create reservoir_seed)
    registry

(** All metrics in registration order. *)
let all () : metric list =
  List.rev_map (fun name -> Hashtbl.find registry name) !order

(* --- reporting --- *)

let summary_lines () : string list =
  let name_of = function
    | Counter c -> c.c_name
    | Histogram h -> h.h_name
  in
  all ()
  |> List.sort (fun a b -> compare (name_of a) (name_of b))
  |> List.map (fun m ->
         match m with
         | Counter c -> Printf.sprintf "%-28s %d" c.c_name c.c_value
         | Histogram h ->
             if h.h_count = 0 then Printf.sprintf "%-28s (no samples)" h.h_name
             else
               Printf.sprintf "%-28s n=%d sum=%.0f min=%.0f mean=%.1f max=%.0f"
                 h.h_name h.h_count h.h_sum h.h_min (mean h) h.h_max)

let to_text () =
  Printf.sprintf "# clock: monotonic, measured granularity %Ld ns\n"
    (Control.granularity_ns ())
  ^ String.concat "\n" (summary_lines ())
  ^ "\n"

(** Metrics as a JSON object, for embedding in trace exports. The
    [clock.granularity_ns] entry records the measured tick of the
    monotonic source under every timing. *)
let to_json () : Json.t =
  let entries =
    all ()
    |> List.map (fun m ->
           match m with
           | Counter c -> (c.c_name, Json.Int c.c_value)
           | Histogram h ->
               ( h.h_name,
                 Json.Obj
                   [
                     ("count", Json.Int h.h_count);
                     ("sum", Json.Float h.h_sum);
                     ("min", Json.Float (if h.h_count = 0 then 0.0 else h.h_min));
                     ("mean", Json.Float (mean h));
                     ("max", Json.Float (if h.h_count = 0 then 0.0 else h.h_max));
                   ] ))
    |> List.sort compare
  in
  Json.Obj
    (("clock.granularity_ns", Json.Int (Int64.to_int (Control.granularity_ns ())))
    :: entries)
