(** Runtime type descriptors.

    Modula-3 requires a type descriptor in every heap object; this is what
    makes requirements (i) and (ii) of the paper ("determine the size of heap
    objects" / "locate pointers contained in heap objects") straightforward.
    Every heap object starts with a one-word header holding its descriptor
    index; open arrays add a second header word holding the element count.

    Object layouts (word offsets from the object pointer, which is tidy and
    points at the header):
    {v
      fixed:  [0] tdesc id   [1..size]      data words
      open:   [0] tdesc id   [1] length     [2..2+len*elt_size-1] elements
    v} *)

type t =
  | Fixed of { size : int; ptr_offsets : int list }
      (** [size] data words; [ptr_offsets] are data-relative (0-based) word
          offsets containing pointers. *)
  | Open of { elt_size : int; elt_ptr_offsets : int list }
      (** Open array: per-element size and pointer offsets within an element. *)

let fixed_header_words = 1
let open_header_words = 2

(** Total object size in words given the descriptor and (for open arrays)
    the length. *)
let object_words t ~length =
  match t with
  | Fixed { size; _ } -> fixed_header_words + size
  | Open { elt_size; _ } -> open_header_words + (length * elt_size)

(** Object-relative word offsets of the pointers inside an object. *)
let object_ptr_offsets t ~length =
  match t with
  | Fixed { ptr_offsets; _ } -> List.map (fun o -> o + fixed_header_words) ptr_offsets
  | Open { elt_size; elt_ptr_offsets } ->
      if elt_ptr_offsets = [] then []
      else
        List.concat
          (List.init length (fun i ->
               List.map (fun o -> open_header_words + (i * elt_size) + o) elt_ptr_offsets))

(* ------------------------------------------------------------------ *)
(* Flat layout table (collector hot path)                              *)
(* ------------------------------------------------------------------ *)

(** The descriptors flattened for the collectors, built once per image and
    indexed by descriptor id: [object_ptr_offsets] builds fresh offset
    lists — per live object, per collection — which is pure allocation on
    the Cheney scan's hot path, and a variant per descriptor costs a
    dispatch per object.

    - [sizes.(d)] is the total object size in words (header included) for
      a fixed descriptor, or minus the element size for an open array, so
      a positive entry means fixed;
    - [offsets.(d)] holds the pointer offsets: object-relative (header
      included) for a fixed descriptor, element-relative for an open array,
      whose elements start at [open_header_words] with stride [-sizes.(d)]. *)
type layouts = { sizes : int array; offsets : int array array }

let layouts (ts : t array) =
  {
    sizes =
      Array.map
        (function Fixed { size; _ } -> fixed_header_words + size | Open { elt_size; _ } -> -elt_size)
        ts;
    offsets =
      Array.map
        (function
          | Fixed { ptr_offsets; _ } ->
              Array.of_list (List.map (fun o -> o + fixed_header_words) ptr_offsets)
          | Open { elt_ptr_offsets; _ } -> Array.of_list elt_ptr_offsets)
        ts;
  }

(** Same as {!object_words}, from a [sizes] entry; [length] matters only
    for an open array (non-positive entry). *)
let[@inline] words size ~length = if size > 0 then size else open_header_words - (length * size)

(* ------------------------------------------------------------------ *)
(* Interning table built at compile time                               *)
(* ------------------------------------------------------------------ *)

type table = { mutable descs : t list (* reversed *); mutable count : int }

let create_table () = { descs = []; count = 0 }

let intern tbl d =
  (* Linear search is fine: programs have few distinct heap types. *)
  let rec find i = function
    | [] -> None
    | d' :: rest -> if d' = d then Some (tbl.count - 1 - i) else find (i + 1) rest
  in
  match find 0 tbl.descs with
  | Some id -> id
  | None ->
      let id = tbl.count in
      tbl.descs <- d :: tbl.descs;
      tbl.count <- tbl.count + 1;
      id

let of_m3l_type (ty : M3l.Types.ty) : t =
  match ty with
  | M3l.Types.Topen elt ->
      Open
        {
          elt_size = M3l.Types.size_words elt;
          elt_ptr_offsets = M3l.Types.pointer_offsets elt;
        }
  | other ->
      Fixed
        {
          size = M3l.Types.size_words other;
          ptr_offsets = M3l.Types.pointer_offsets other;
        }

let to_array tbl = Array.of_list (List.rev tbl.descs)
