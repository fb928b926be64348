(* The conservative collector's original object lookup, kept as the
   reference that Gc.Incremental's object-start bitmap is tested against:
   every object as an (address, size) pair sorted by address, and a binary
   search for the last start at or below the word. An interior word pins
   its object. Test-only. *)

type t = (int * int) array

let of_objects (objects : (int * int) list) : t =
  let arr = Array.of_list objects in
  Array.sort compare arr;
  arr

(* The object (if any) an ambiguous word [v] pins. *)
let find_object (arr : t) v =
  let n = Array.length arr in
  if n = 0 || v < fst arr.(0) then None
  else begin
    let rec bsearch lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if fst arr.(mid) <= v then bsearch mid hi else bsearch lo mid
    in
    let addr, size = arr.(bsearch 0 n) in
    if v >= addr && v < addr + size then Some addr else None
  end
