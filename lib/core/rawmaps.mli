(** Raw (unencoded) per-gc-point gc information, as produced by the code
    generator: the conceptual content of the paper's three table kinds
    (§3) — stack pointers, register pointers, derivations — plus the
    path-variable variants of §4, before any organization or compression. *)

(** One derivation: [target = Σ plus − Σ minus + E]. Only the base
    locations are recorded; E is recovered at collection time by applying
    the inverse operations (paper §3: invertibility means no information
    about E is ever needed). *)
type deriv_entry = { target : Loc.t; plus : Loc.t list; minus : Loc.t list }

(** An ambiguous derivation (paper §4): the derivation of [target] in force
    is selected at run time by the value found at [path_loc]. *)
type variant = {
  path_loc : Loc.t;
  cases : (int * deriv_entry) list; (* path value -> derivation *)
}

type gcpoint = {
  gp_index : int; (* instruction index of the call within the function *)
  gp_offset : int; (* byte offset of the call within the function's code *)
  stack_ptrs : Loc.t list; (* live tidy pointers in stack words *)
  reg_ptrs : int list; (* registers holding live tidy pointers *)
  derivs : deriv_entry list; (* ordered: a derived value precedes its bases *)
  variants : variant list;
}

type proc_maps = {
  pm_fid : int;
  pm_name : string;
  pm_frame_size : int; (* words below the saved-FP slot *)
  pm_nargs : int; (* incoming argument words *)
  pm_saves : (int * int) list; (* (callee-saved reg, FP-relative offset) *)
  pm_code_bytes : int;
  pm_gcpoints : gcpoint list; (* sorted by gp_offset *)
}

val gcpoint_is_empty : gcpoint -> bool

val order_derivs : deriv_entry list -> deriv_entry list
(** Order entries so every derived value comes before any of its base
    values — the paper's second ordering rule for the two-step update.
    Entries not related by a base edge keep a deterministic order.
    @raise Invalid_argument on a derivation cycle (impossible for
    well-formed input: "derivations are always made from previously
    calculated base values"). *)

val pp_deriv : Format.formatter -> deriv_entry -> unit
val pp_gcpoint : Format.formatter -> gcpoint -> unit
