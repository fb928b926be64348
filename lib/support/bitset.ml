type t = { width : int; words : int array }

let bits_per_word = 62

let create width =
  if width < 0 then invalid_arg "Bitset.create";
  { width; words = Array.make ((width + bits_per_word - 1) / bits_per_word + 1) 0 }

let length t = t.width

let check t i =
  if i < 0 || i >= t.width then invalid_arg "Bitset: index out of bounds"

let set t i =
  check t i;
  t.words.(i / bits_per_word) <-
    t.words.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))

let clear t i =
  check t i;
  t.words.(i / bits_per_word) <-
    t.words.(i / bits_per_word) land lnot (1 lsl (i mod bits_per_word))

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let reset t = Array.fill t.words 0 (Array.length t.words) 0

(* Index of the highest set bit of a non-zero word, by binary search. *)
let msb w =
  let rec go w n s =
    if s = 0 then n else if w lsr s <> 0 then go (w lsr s) (n + s) (s / 2) else go w n (s / 2)
  in
  go w 0 32

let prev_set t i =
  check t i;
  let wi = ref (i / bits_per_word) in
  (* Bits 0..(i mod 62) of the first word; at bit 61 the shift yields
     [min_int], and [min_int - 1] is every bit 0..61. *)
  let w = ref (t.words.(!wi) land ((1 lsl ((i mod bits_per_word) + 1)) - 1)) in
  while !w = 0 && !wi > 0 do
    decr wi;
    w := t.words.(!wi)
  done;
  if !w = 0 then -1 else (!wi * bits_per_word) + msb !w

let is_empty t = Array.for_all (fun w -> w = 0) t.words

(* SWAR popcount of a word; words use only bits 0..61, so every mask fits
   a non-negative OCaml int and no byte sum carries. *)
let popcount w =
  let w = w - ((w lsr 1) land 0x1555_5555_5555_5555) in
  let w = (w land 0x3333_3333_3333_3333) + ((w lsr 2) land 0x3333_3333_3333_3333) in
  let w = (w + (w lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  ((w * 0x0101_0101_0101_0101) lsr 56) land 0x7f

let count t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let equal a b =
  a.width = b.width
  &&
  let rec go i = i < 0 || (a.words.(i) = b.words.(i) && go (i - 1)) in
  go (Array.length a.words - 1)

let copy t = { t with words = Array.copy t.words }

let union_into ~dst src =
  if dst.width <> src.width then invalid_arg "Bitset.union_into: width mismatch";
  for i = 0 to Array.length src.words - 1 do
    dst.words.(i) <- dst.words.(i) lor src.words.(i)
  done

let iter f t =
  for wi = 0 to Array.length t.words - 1 do
    let w = ref t.words.(wi) and i = ref (wi * bits_per_word) in
    while !w <> 0 do
      if !w land 1 <> 0 then f !i;
      w := !w lsr 1;
      incr i
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_bytes t =
  let nbytes = (t.width + 7) / 8 in
  let b = Bytes.make nbytes '\000' in
  iter
    (fun i ->
      let byte = Char.code (Bytes.get b (i / 8)) in
      Bytes.set b (i / 8) (Char.chr (byte lor (1 lsl (i mod 8)))))
    t;
  b

let of_bytes ~width b pos =
  let nbytes = (width + 7) / 8 in
  if pos + nbytes > Bytes.length b then invalid_arg "Bitset.of_bytes: truncated";
  let t = create width in
  for i = 0 to width - 1 do
    let byte = Char.code (Bytes.get b (pos + (i / 8))) in
    if byte land (1 lsl (i mod 8)) <> 0 then set t i
  done;
  (t, pos + nbytes)

let pp fmt t =
  Format.fprintf fmt "{";
  let first = ref true in
  iter
    (fun i ->
      if not !first then Format.fprintf fmt ",";
      first := false;
      Format.fprintf fmt "%d" i)
    t;
  Format.fprintf fmt "}"
