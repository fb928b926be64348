(** Textual dump of MIR functions, for tests and -dump-mir. *)

open Ir

let pp_operand fmt = function
  | Otemp t -> Format.fprintf fmt "t%d" t
  | Oimm n -> Format.fprintf fmt "%d" n

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Mod -> "mod"
  | Min -> "min"
  | Max -> "max"

let relop_name = function
  | Req -> "eq"
  | Rne -> "ne"
  | Rlt -> "lt"
  | Rle -> "le"
  | Rgt -> "gt"
  | Rge -> "ge"

let callee_name prog = function
  | Cuser fid -> prog.funcs.(fid).fname
  | Crt rc -> rt_name rc

let pp_kind fmt = function
  | Kscalar -> Format.fprintf fmt "s"
  | Kptr -> Format.fprintf fmt "p"
  | Kstack -> Format.fprintf fmt "a"
  | Kderived d -> Format.fprintf fmt "d[%a]" Deriv.pp d

let pp_instr prog fmt i =
  match i with
  | Mov (d, s) -> Format.fprintf fmt "t%d := %a" d pp_operand s
  | Bin (op, d, a, b) ->
      Format.fprintf fmt "t%d := %s %a, %a" d (binop_name op) pp_operand a pp_operand b
  | Neg (d, s) -> Format.fprintf fmt "t%d := neg %a" d pp_operand s
  | Abs (d, s) -> Format.fprintf fmt "t%d := abs %a" d pp_operand s
  | Setrel (r, d, a, b) ->
      Format.fprintf fmt "t%d := set%s %a, %a" d (relop_name r) pp_operand a pp_operand b
  | Ld_local (d, l, o) -> Format.fprintf fmt "t%d := local%d[%d]" d l o
  | St_local (l, o, s) -> Format.fprintf fmt "local%d[%d] := %a" l o pp_operand s
  | Ld_global (d, g, o) -> Format.fprintf fmt "t%d := global%d[%d]" d g o
  | St_global (g, o, s) -> Format.fprintf fmt "global%d[%d] := %a" g o pp_operand s
  | Lda_local (d, l, o) -> Format.fprintf fmt "t%d := &local%d + %d" d l o
  | Lda_global (d, g, o) -> Format.fprintf fmt "t%d := &global%d + %d" d g o
  | Lda_text (d, x) -> Format.fprintf fmt "t%d := &text%d" d x
  | Load (d, a, o) -> Format.fprintf fmt "t%d := M[%a + %d]" d pp_operand a o
  | Store (a, o, v) -> Format.fprintf fmt "M[%a + %d] := %a" pp_operand a o pp_operand v
  | Store_nb (a, o, v) ->
      Format.fprintf fmt "M[%a + %d] :=[nb] %a" pp_operand a o pp_operand v
  | Call (d, c, args) ->
      (match d with
      | Some d -> Format.fprintf fmt "t%d := call %s(" d (callee_name prog c)
      | None -> Format.fprintf fmt "call %s(" (callee_name prog c));
      List.iteri
        (fun i a -> Format.fprintf fmt "%s%a" (if i > 0 then ", " else "") pp_operand a)
        args;
      Format.fprintf fmt ")"

let pp_term fmt = function
  | Jmp l -> Format.fprintf fmt "jmp L%d" l
  | Cjmp (r, a, b, t, e) ->
      Format.fprintf fmt "if %s %a, %a then L%d else L%d" (relop_name r) pp_operand a
        pp_operand b t e
  | Ret None -> Format.fprintf fmt "ret"
  | Ret (Some o) -> Format.fprintf fmt "ret %a" pp_operand o
  | Unreachable -> Format.fprintf fmt "unreachable"
  | Trap msg -> Format.fprintf fmt "trap %S" msg

let pp_func prog fmt (f : func) =
  Format.fprintf fmt "func %s(%d params) {@." f.fname f.nparams;
  Array.iteri
    (fun i (info : local_info) ->
      Format.fprintf fmt "  local%d %s : size=%d%s@." i info.l_name info.l_size
        (match info.l_slot with
        | Sscalar -> ""
        | Sptr -> " ptr"
        | Saddr -> " addr"
        | Sderived d -> Format.asprintf " derived[%a]" Deriv.pp d
        | Sambig a ->
            Printf.sprintf " ambig(path=local%d, %d cases)" a.Ir.path_local
              (List.length a.Ir.cases)
        | Saggregate ptrs ->
            Printf.sprintf " agg(ptrs=[%s])" (String.concat ";" (List.map string_of_int ptrs))))
    f.locals;
  Array.iteri
    (fun lbl (b : block) ->
      Format.fprintf fmt "L%d:@." lbl;
      List.iter
        (fun i ->
          Format.fprintf fmt "  %a" (pp_instr prog) i;
          (match instr_def i with
          | Some d -> Format.fprintf fmt "   ; %a" pp_kind (temp_kind f d)
          | None -> ());
          Format.fprintf fmt "@.")
        b.instrs;
      Format.fprintf fmt "  %a@." pp_term b.term)
    f.blocks;
  Format.fprintf fmt "}@."

let func_to_string prog f = Format.asprintf "%a" (pp_func prog) f
