(* The dead-base rule at a call (paper §3-4), as the tests see it: a
   program whose only base dies at the call that takes a derived argument,
   and the static check that every derivation base an image's tables name
   is described at its gc-point. *)

(* [Once] passes [w.a[2]] by reference through the WITH alias [w = p^],
   and [p] is dead after the call. Unless the call's table keeps [p], the
   collections inside [Bump] move the record without updating the
   argument, and the program prints garbage instead of 65. *)
let src =
  "MODULE DeadBase;\n\
   TYPE R = RECORD v: INTEGER; a: ARRAY [0..3] OF INTEGER END; P = REF R;\n\
   VAR junk, keep: P; s, r: INTEGER;\n\
   PROCEDURE Bump(VAR x: INTEGER);\n\
   VAR k: INTEGER;\n\
   BEGIN\n\
   \  FOR k := 1 TO 200 DO\n\
   \    junk := NEW(P); junk.v := 7777; junk.a[0] := 7777; junk.a[1] := 7777;\n\
   \    junk.a[2] := 7777; junk.a[3] := 7777;\n\
   \    IF k MOD 3 = 0 THEN keep := junk END\n\
   \  END;\n\
   \  x := x + 1; s := s + x\n\
   END Bump;\n\
   PROCEDURE Once(n: INTEGER);\n\
   VAR p: P;\n\
   BEGIN\n\
   \  p := NEW(P); p.a[2] := n;\n\
   \  WITH w = p^ DO Bump(w.a[2]) END\n\
   END Once;\n\
   BEGIN\n\
   \  s := 0;\n\
   \  FOR r := 1 TO 10 DO Once(r) END;\n\
   \  PutInt(s); PutLn()\n\
   END DeadBase.\n"

let expected = "65\n"

(** [None] when every derivation base in [img]'s tables is described at
    its gc-point ({!Gcmaps.Rawmaps.undescribed_bases}); otherwise the
    first procedure and gc-point that leaves one out. *)
let undescribed (img : Vm.Image.t) : string option =
  Array.to_list img.Vm.Image.rawmaps
  |> List.find_map (fun (pm : Gcmaps.Rawmaps.proc_maps) ->
         match Gcmaps.Rawmaps.undescribed_bases pm with
         | [] -> None
         | (gp, b) :: _ ->
             Some
               (Format.asprintf "%s: base %a undescribed at %a" pm.Gcmaps.Rawmaps.pm_name
                  Gcmaps.Loc.pp b Gcmaps.Rawmaps.pp_gcpoint gp))

let check_described what img =
  Alcotest.(check (option string))
    (what ^ ": every derivation base described")
    None (undescribed img)
