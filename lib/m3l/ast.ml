(** Abstract syntax of M3L, as produced by the parser (untyped). *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
  | And (* short-circuit *)
  | Or (* short-circuit *)

type unop = Neg | Not

(** Type expressions as written in the source. *)
type type_expr =
  | Tname of string * Srcloc.t (* INTEGER, BOOLEAN, CHAR, TEXT or a declared name *)
  | Trecord of (string * type_expr) list * Srcloc.t
  | Tarray of int * int * type_expr * Srcloc.t (* ARRAY [lo..hi] OF T *)
  | Topen_array of type_expr * Srcloc.t (* ARRAY OF T — only under REF *)
  | Tref of type_expr * Srcloc.t

type expr =
  | Int_lit of int * Srcloc.t
  | Char_lit of char * Srcloc.t
  | Str_lit of string * Srcloc.t
  | Bool_lit of bool * Srcloc.t
  | Nil_lit of Srcloc.t
  | Var of string * Srcloc.t
  | Field of expr * string * Srcloc.t (* e.f (implicit deref on REF) *)
  | Index of expr * expr * Srcloc.t (* e[i] (implicit deref on REF) *)
  | Deref of expr * Srcloc.t (* e^ *)
  | Binop of binop * expr * expr * Srcloc.t
  | Unop of unop * expr * Srcloc.t
  | Call_expr of string * arg list * Srcloc.t
  | New_expr of type_expr * expr option * Srcloc.t (* NEW(T) / NEW(T, n) *)

and arg = Arg of expr (* argument expression; VAR-ness resolved by checker *)

type stmt =
  | Assign of expr * expr * Srcloc.t (* designator := expr *)
  | Call_stmt of string * arg list * Srcloc.t
  | If of (expr * stmt list) list * stmt list * Srcloc.t
    (* branches (cond, body) for IF/ELSIF chain; final else *)
  | While of expr * stmt list * Srcloc.t
  | For of string * expr * expr * int * stmt list * Srcloc.t
    (* FOR id := lo TO hi BY step DO ... END, step a nonzero constant *)
  | Return of expr option * Srcloc.t
  | With of string * expr * stmt list * Srcloc.t (* WITH id = e DO ... END *)

type param = { p_name : string; p_type : type_expr; p_var : bool; p_loc : Srcloc.t }

type proc_decl = {
  proc_name : string;
  params : param list;
  ret_type : type_expr option;
  locals : (string * type_expr * Srcloc.t) list;
  body : stmt list;
  proc_loc : Srcloc.t;
}

type decl =
  | Type_decl of string * type_expr * Srcloc.t
  | Var_decl of string * type_expr * Srcloc.t
  | Proc_decl of proc_decl

type compilation_unit = {
  module_name : string;
  decls : decl list;
  main : stmt list; (* module body *)
}
