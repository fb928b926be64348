(** Shared instantiations of integer sets and maps, so every compiler pass
    uses the same modules (and the same physical comparison function). *)

module Iset = Set.Make (Int)
module Imap = Map.Make (Int)
module Smap = Map.Make (String)
module Sset = Set.Make (String)

(** Modula-3 DIV: the quotient rounded toward minus infinity. [b] must not
    be 0; the constant folder refuses to fold that case and the VM traps
    on it. *)
let m3_div a b =
  let q = a / b in
  if (a < 0) <> (b < 0) && q * b <> a then q - 1 else q

(** Modula-3 MOD: the remainder of {!m3_div}, with the divisor's sign. *)
let m3_mod a b = a - (b * m3_div a b)
