(** Order statistics over timing samples.

    Every summary the benchmark reports is one of three things: a median,
    a percentile of samples pooled across rounds, or the quartile spread
    of per-round values. All take float arrays and never mutate them. *)

let sorted (a : float array) =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(** Median; [nan] for an empty array. *)
let median (a : float array) =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(** Percentile [p] in [0,1], interpolating linearly between the two
    closest ranks (numpy's default); [nan] for an empty array. *)
let percentile (a : float array) p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then Float.nan
  else begin
    let h = p *. float_of_int (n - 1) in
    let lo = max 0 (min (n - 1) (int_of_float h)) in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))
  end

(** Percentile of the samples of every round taken together — the tail
    of the whole run, not an average of per-round tails. *)
let pooled_percentile (rounds : float array list) p = percentile (Array.concat rounds) p

(** The three cut points of Python's [statistics.quantiles(data, n=4)]
    (its default "exclusive" method). Needs at least two values. *)
let quartiles (a : float array) =
  let s = sorted a in
  let n = Array.length s in
  if n < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = n + 1 in
  let cut i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.0
  in
  (cut 1, cut 2, cut 3)

(** Distance between the first and third quartile as a share of the
    median: the run-to-run spread the acceptance rule bounds. *)
let spread (a : float array) =
  let q1, _, q3 = quartiles a in
  (q3 -. q1) /. median a
