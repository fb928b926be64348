type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of beginning of current line *)
}

let loc st : Srcloc.t = { line = st.line; col = st.pos - st.bol + 1 }
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

(* The scans below index the source after a bounds test, so they allocate
   nothing. [next] returns NUL past the end of input; it is only ever
   compared with punctuation, so a NUL in the source cannot be mistaken. *)
let next st =
  if st.pos + 1 < String.length st.src then String.unsafe_get st.src (st.pos + 1) else '\000'

let advance st =
  if st.pos < String.length st.src && String.unsafe_get st.src st.pos = '\n' then begin
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  end;
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let rec skip_comment st depth start_loc =
  if st.pos >= String.length st.src then M3l_error.lex_error start_loc "unterminated comment";
  match (String.unsafe_get st.src st.pos, next st) with
  | '*', ')' ->
      st.pos <- st.pos + 2;
      if depth > 1 then skip_comment st (depth - 1) start_loc
  | '(', '*' ->
      st.pos <- st.pos + 2;
      skip_comment st (depth + 1) start_loc
  | _ ->
      advance st;
      skip_comment st depth start_loc

(* Scan [st.src] from [st.pos] while [p] holds; returns the start. *)
let scan st p =
  let start = st.pos in
  while st.pos < String.length st.src && p (String.unsafe_get st.src st.pos) do
    st.pos <- st.pos + 1
  done;
  start

let keywords = Hashtbl.of_seq (List.to_seq Token.keyword_table)

let lex_ident st =
  let start = scan st is_alnum in
  let s = String.sub st.src start (st.pos - start) in
  match Hashtbl.find_opt keywords s with Some kw -> kw | None -> Token.IDENT s

let lex_int st =
  let start = scan st is_digit in
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
    if st.pos >= String.length src then emit Token.EOF (loc st)
    else
      match String.unsafe_get src st.pos with
      | ' ' | '\t' | '\r' | '\n' ->
          advance st;
          go ()
      | '(' when next st = '*' ->
          let l = loc st in
          st.pos <- st.pos + 2;
          skip_comment st 1 l;
          go ()
      | c ->
          let l = loc st in
          (if is_alpha c then emit (lex_ident st) l
           else if is_digit c then emit (lex_int st) l
           else if c = '\'' then emit (lex_char st) l
           else if c = '"' then emit (lex_string st) l
           else
             let simple tok =
               st.pos <- st.pos + 1;
               emit tok l
             in
             let two tok =
               st.pos <- st.pos + 2;
               emit tok l
             in
             match (c, next st) with
             | ':', '=' -> two Token.ASSIGN
             | ':', _ -> simple Token.COLON
             | '.', '.' -> two Token.DOTDOT
             | '.', _ -> simple Token.DOT
             | '<', '=' -> two Token.LE
             | '<', _ -> simple Token.LT
             | '>', '=' -> two Token.GE
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
