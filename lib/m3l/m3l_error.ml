(** Compilation errors raised by the M3L front end. *)

exception Lex_error of Srcloc.t * string
exception Parse_error of Srcloc.t * string
exception Type_error of Srcloc.t * string

let lex_error loc fmt = Printf.ksprintf (fun s -> raise (Lex_error (loc, s))) fmt
let parse_error loc fmt = Printf.ksprintf (fun s -> raise (Parse_error (loc, s))) fmt
let type_error loc fmt = Printf.ksprintf (fun s -> raise (Type_error (loc, s))) fmt
