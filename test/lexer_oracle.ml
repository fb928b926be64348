(* The lexer M3l.Lexer replaced, kept as the reference it is tested
   against: an [option] per character peeked and keywords found by a linear
   search of Token.keyword_table. Slow and obviously faithful to the
   definition; test-only. *)

open M3l

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of beginning of current line *)
}

let loc st : Srcloc.t = { line = st.line; col = st.pos - st.bol + 1 }
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
  | Some _ | None -> ());
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let rec skip_comment st depth start_loc =
  match (peek st, peek2 st) with
  | None, _ -> M3l_error.lex_error start_loc "unterminated comment"
  | Some '*', Some ')' ->
      advance st;
      advance st;
      if depth > 1 then skip_comment st (depth - 1) start_loc
  | Some '(', Some '*' ->
      advance st;
      advance st;
      skip_comment st (depth + 1) start_loc
  | Some _, _ ->
      advance st;
      skip_comment st depth start_loc

let lex_ident st =
  let start = st.pos in
  while match peek st with Some c -> is_alnum c | None -> false do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  match List.assoc_opt s Token.keyword_table with
  | Some kw -> kw
  | None -> Token.IDENT s

let lex_int st =
  let start = st.pos in
  while match peek st with Some c -> is_digit c | None -> false do
    advance st
  done;
  Token.INT_LIT (int_of_string (String.sub st.src start (st.pos - start)))

let escape_char l = function
  | 'n' -> '\n'
  | 't' -> '\t'
  | 'r' -> '\r'
  | '\\' -> '\\'
  | '\'' -> '\''
  | '"' -> '"'
  | '0' -> '\000'
  | c -> M3l_error.lex_error l "unknown escape '\\%c'" c

let lex_char st =
  let l = loc st in
  advance st (* opening quote *);
  let c =
    match peek st with
    | None -> M3l_error.lex_error l "unterminated character literal"
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> M3l_error.lex_error l "unterminated character literal"
        | Some e ->
            advance st;
            escape_char l e)
    | Some c ->
        advance st;
        c
  in
  (match peek st with
  | Some '\'' -> advance st
  | Some _ | None -> M3l_error.lex_error l "unterminated character literal");
  Token.CHAR_LIT c

let lex_string st =
  let l = loc st in
  advance st (* opening quote *);
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None | Some '\n' -> M3l_error.lex_error l "unterminated string literal"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> M3l_error.lex_error l "unterminated string literal"
        | Some e ->
            advance st;
            Buffer.add_char buf (escape_char l e);
            go ())
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Token.STR_LIT (Buffer.contents buf)

let tokenize src =
  let st = { src; pos = 0; line = 1; bol = 0 } in
  let toks = ref [] in
  let emit tok l = toks := (tok, l) :: !toks in
  let rec go () =
    match peek st with
    | None -> emit Token.EOF (loc st)
    | Some (' ' | '\t' | '\r' | '\n') ->
        advance st;
        go ()
    | Some '(' when peek2 st = Some '*' ->
        let l = loc st in
        advance st;
        advance st;
        skip_comment st 1 l;
        go ()
    | Some c ->
        let l = loc st in
        (if is_alpha c then emit (lex_ident st) l
         else if is_digit c then emit (lex_int st) l
         else if c = '\'' then emit (lex_char st) l
         else if c = '"' then emit (lex_string st) l
         else
           let simple tok =
             advance st;
             emit tok l
           in
           let two tok =
             advance st;
             advance st;
             emit tok l
           in
           match (c, peek2 st) with
           | ':', Some '=' -> two Token.ASSIGN
           | ':', _ -> simple Token.COLON
           | '.', Some '.' -> two Token.DOTDOT
           | '.', _ -> simple Token.DOT
           | '<', Some '=' -> two Token.LE
           | '<', _ -> simple Token.LT
           | '>', Some '=' -> two Token.GE
           | '>', _ -> simple Token.GT
           | ';', _ -> simple Token.SEMI
           | ',', _ -> simple Token.COMMA
           | '(', _ -> simple Token.LPAREN
           | ')', _ -> simple Token.RPAREN
           | '[', _ -> simple Token.LBRACKET
           | ']', _ -> simple Token.RBRACKET
           | '^', _ -> simple Token.CARET
           | '=', _ -> simple Token.EQ
           | '#', _ -> simple Token.NEQ
           | '+', _ -> simple Token.PLUS
           | '-', _ -> simple Token.MINUS
           | '*', _ -> simple Token.STAR
           | _ -> M3l_error.lex_error l "unexpected character %C" c);
        go ()
  in
  go ();
  List.rev !toks
