(* Lexer, parser and typechecker tests. *)

let check = Alcotest.check

let toks src = List.map fst (M3l.Lexer.tokenize src)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let test_lex_basics () =
  check Alcotest.int "count includes EOF" 6 (List.length (toks "x := 1 + y"));
  match toks "x := 1" with
  | [ M3l.Token.IDENT "x"; M3l.Token.ASSIGN; M3l.Token.INT_LIT 1; M3l.Token.EOF ] -> ()
  | _ -> Alcotest.fail "unexpected token stream"

let test_lex_keywords () =
  match toks "MODULE WHILE Module" with
  | [ M3l.Token.MODULE; M3l.Token.WHILE; M3l.Token.IDENT "Module"; M3l.Token.EOF ] -> ()
  | _ -> Alcotest.fail "keywords are case-sensitive uppercase"

let test_lex_operators () =
  match toks ":= <= >= < > = # .. . ^" with
  | [
   M3l.Token.ASSIGN;
   M3l.Token.LE;
   M3l.Token.GE;
   M3l.Token.LT;
   M3l.Token.GT;
   M3l.Token.EQ;
   M3l.Token.NEQ;
   M3l.Token.DOTDOT;
   M3l.Token.DOT;
   M3l.Token.CARET;
   M3l.Token.EOF;
  ] -> ()
  | _ -> Alcotest.fail "operator lexing"

let test_lex_literals () =
  (match toks "'a' '\\n' \"hi\\tthere\"" with
  | [ M3l.Token.CHAR_LIT 'a'; M3l.Token.CHAR_LIT '\n'; M3l.Token.STR_LIT "hi\tthere"; M3l.Token.EOF ]
    -> ()
  | _ -> Alcotest.fail "literal lexing");
  match toks "12345" with
  | [ M3l.Token.INT_LIT 12345; M3l.Token.EOF ] -> ()
  | _ -> Alcotest.fail "int literal"

let test_lex_comments () =
  (match toks "a (* comment (* nested *) still *) b" with
  | [ M3l.Token.IDENT "a"; M3l.Token.IDENT "b"; M3l.Token.EOF ] -> ()
  | _ -> Alcotest.fail "nested comments");
  match M3l.Lexer.tokenize "(* unterminated" with
  | exception M3l.M3l_error.Lex_error _ -> ()
  | _ -> Alcotest.fail "expected lex error"

let test_lex_positions () =
  let t = M3l.Lexer.tokenize "a\n  b" in
  match t with
  | [ (_, p1); (_, p2); _ ] ->
      check Alcotest.int "line a" 1 p1.M3l.Srcloc.line;
      check Alcotest.int "line b" 2 p2.M3l.Srcloc.line;
      check Alcotest.int "col b" 3 p2.M3l.Srcloc.col
  | _ -> Alcotest.fail "token count"

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let parse = M3l.Parser.parse

let wrap body = Printf.sprintf "MODULE T;\nBEGIN\n%s\nEND T.\n" body

let test_parse_module () =
  let cu = parse "MODULE Empty; END Empty." in
  check Alcotest.string "name" "Empty" cu.M3l.Ast.module_name;
  check Alcotest.int "no decls" 0 (List.length cu.M3l.Ast.decls);
  check Alcotest.int "no body" 0 (List.length cu.M3l.Ast.main)

let test_parse_mismatched_end () =
  match parse "MODULE A; END B." with
  | exception M3l.M3l_error.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected parse error"

let test_parse_precedence () =
  (* a + b * c parses as a + (b * c); comparisons bind tighter than AND/OR. *)
  let cu = parse (wrap "x := a + b * c") in
  (match cu.M3l.Ast.main with
  | [ M3l.Ast.Assign (_, M3l.Ast.Binop (M3l.Ast.Add, _, M3l.Ast.Binop (M3l.Ast.Mul, _, _, _), _), _) ]
    -> ()
  | _ -> Alcotest.fail "mul binds tighter than add");
  let cu = parse (wrap "x := a < b AND c > d") in
  match cu.M3l.Ast.main with
  | [ M3l.Ast.Assign (_, M3l.Ast.Binop (M3l.Ast.And, _, _, _), _) ] -> ()
  | _ -> Alcotest.fail "AND is lower than comparisons"

let test_parse_statements () =
  let cu =
    parse
      (wrap
         "IF a THEN x := 1 ELSIF b THEN x := 2 ELSE x := 3 END;\n\
          WHILE c DO x := x + 1 END;\n\
          FOR i := 1 TO 10 BY 2 DO x := i END;\n\
          RETURN;\n\
          WITH y = x DO x := y END")
  in
  check Alcotest.int "five statements" 5 (List.length cu.M3l.Ast.main)

let test_parse_types () =
  let cu =
    parse
      "MODULE T;\n\
       TYPE R = RECORD a, b: INTEGER; c: REF R END;\n\
      \     A = ARRAY [1..10] OF INTEGER;\n\
      \     V = REF ARRAY OF CHAR;\n\
       VAR x: R; v: V;\n\
       END T."
  in
  check Alcotest.int "decls" 5 (List.length cu.M3l.Ast.decls)

let test_parse_procs () =
  let cu =
    parse
      "MODULE T;\n\
       PROCEDURE F(x: INTEGER; VAR y: INTEGER): INTEGER;\n\
       VAR t: INTEGER;\n\
       BEGIN RETURN x + t END F;\n\
       END T."
  in
  match cu.M3l.Ast.decls with
  | [ M3l.Ast.Proc_decl p ] ->
      check Alcotest.int "params" 2 (List.length p.M3l.Ast.params);
      check Alcotest.bool "var param" true
        (List.exists (fun (pr : M3l.Ast.param) -> pr.M3l.Ast.p_var) p.M3l.Ast.params)
  | _ -> Alcotest.fail "proc decl"

(* ------------------------------------------------------------------ *)
(* Typechecker                                                         *)
(* ------------------------------------------------------------------ *)

let accepts src =
  match M3l.Typecheck.check_source src with
  | _ -> ()
  | exception M3l.M3l_error.Type_error (loc, m) ->
      Alcotest.failf "expected to typecheck, got %s: %s" (M3l.Srcloc.to_string loc) m

let rejects src =
  match M3l.Typecheck.check_source src with
  | exception M3l.M3l_error.Type_error _ -> ()
  | _ -> Alcotest.fail "expected a type error"

let test_tc_basics () =
  accepts "MODULE T; VAR x: INTEGER; BEGIN x := 1 + 2 * 3 END T.";
  rejects "MODULE T; VAR x: INTEGER; BEGIN x := TRUE END T.";
  rejects "MODULE T; VAR x: BOOLEAN; BEGIN x := 1 END T.";
  rejects "MODULE T; BEGIN y := 1 END T."

let test_tc_recursive_types () =
  accepts
    "MODULE T; TYPE Node = RECORD v: INTEGER; next: List END; List = REF Node;\n\
     VAR l: List; BEGIN l := NIL END T.";
  (* Self-embedding without REF is illegal. *)
  rejects "MODULE T; TYPE R = RECORD x: R END; VAR r: R; BEGIN END T.";
  (* Mutual recursion entirely through REF is fine. *)
  accepts
    "MODULE T; TYPE A = RECORD b: RB END; RB = REF B; B = RECORD a: RA END; RA = REF A;\n\
     VAR a: A; BEGIN END T."

let test_tc_nil_and_refs () =
  accepts "MODULE T; TYPE L = REF INTEGER; VAR l: L; BEGIN l := NIL END T.";
  rejects "MODULE T; VAR x: INTEGER; BEGIN x := NIL END T.";
  accepts
    "MODULE T; TYPE L = REF INTEGER; VAR a, b: L; f: BOOLEAN; BEGIN f := a = b; f := a # NIL END T.";
  (* Comparing refs of different types is rejected. *)
  rejects
    "MODULE T; TYPE A = REF INTEGER; B = REF BOOLEAN; VAR a: A; b: B; f: BOOLEAN;\n\
     BEGIN f := a = b END T."

let test_tc_arrays () =
  accepts
    "MODULE T; VAR a: ARRAY [3..7] OF INTEGER; x: INTEGER; BEGIN a[3] := 1; x := a[7] END T.";
  rejects "MODULE T; VAR a: ARRAY [3..7] OF INTEGER; BEGIN a[TRUE] := 1 END T.";
  accepts
    "MODULE T; TYPE V = REF ARRAY OF INTEGER; VAR v: V; x: INTEGER;\n\
     BEGIN v := NEW(V, 10); v[0] := 5; x := NUMBER(v) END T.";
  (* Open arrays may not be declared outside REF. *)
  rejects "MODULE T; VAR a: ARRAY OF INTEGER; BEGIN END T.";
  (* NEW of an open array needs a length; fixed NEW must not get one. *)
  rejects "MODULE T; TYPE V = REF ARRAY OF INTEGER; VAR v: V; BEGIN v := NEW(V) END T.";
  rejects "MODULE T; TYPE P = REF INTEGER; VAR p: P; BEGIN p := NEW(P, 3) END T."

let test_tc_procedures () =
  accepts
    "MODULE T;\n\
     PROCEDURE Inc(VAR x: INTEGER; by: INTEGER); BEGIN x := x + by END Inc;\n\
     VAR v: INTEGER; BEGIN Inc(v, 2) END T.";
  (* VAR argument must be a designator. *)
  rejects
    "MODULE T;\n\
     PROCEDURE Inc(VAR x: INTEGER); BEGIN x := x + 1 END Inc;\n\
     BEGIN Inc(1 + 2) END T.";
  (* Wrong arity. *)
  rejects
    "MODULE T; PROCEDURE F(x: INTEGER); BEGIN END F; BEGIN F() END T.";
  (* Using a proper procedure as an expression. *)
  rejects
    "MODULE T; PROCEDURE F(); BEGIN END F; VAR x: INTEGER; BEGIN x := F() END T.";
  (* Return type mismatches. *)
  rejects
    "MODULE T; PROCEDURE F(): INTEGER; BEGIN RETURN TRUE END F; BEGIN END T.";
  rejects "MODULE T; PROCEDURE F(); BEGIN RETURN 1 END F; BEGIN END T."

let test_tc_intrinsics () =
  accepts
    "MODULE T; VAR x: INTEGER; c: CHAR;\n\
     BEGIN x := ORD('a'); c := CHR(65); x := ABS(-3); x := MIN(1,2); x := MAX(3,4) END T.";
  accepts
    "MODULE T; VAR a: ARRAY [2..9] OF INTEGER; x: INTEGER;\n\
     BEGIN x := NUMBER(a) + FIRST(a) + LAST(a) END T.";
  rejects "MODULE T; VAR x: INTEGER; BEGIN x := CHR(TRUE) END T."

let test_tc_with () =
  accepts
    "MODULE T; TYPE R = RECORD f: INTEGER END; P = REF R; VAR p: P;\n\
     BEGIN p := NEW(P); WITH x = p.f DO x := 3 END END T.";
  (* WITH over a non-designator binds a value; assigning to it is a plain
     local store (allowed). Non-scalar value bindings are rejected. *)
  accepts "MODULE T; VAR y: INTEGER; BEGIN WITH x = y + 1 DO y := x END END T."

let test_tc_builtin_io () =
  accepts
    "MODULE T; BEGIN PutInt(1); PutChar('x'); PutText(\"hi\"); PutLn(); Halt() END T.";
  rejects "MODULE T; BEGIN PutInt(TRUE) END T.";
  rejects "MODULE T; BEGIN PutText(42) END T."

let test_tc_assign_aggregates () =
  (* Whole-record and whole-array assignment are not supported. *)
  rejects
    "MODULE T; TYPE R = RECORD x: INTEGER END; VAR a, b: R; BEGIN a := b END T."

let test_tc_duplicates () =
  rejects "MODULE T; TYPE A = INTEGER; A = BOOLEAN; BEGIN END T.";
  rejects "MODULE T; VAR x: INTEGER; x: BOOLEAN; BEGIN END T.";
  rejects
    "MODULE T; PROCEDURE F(); BEGIN END F; PROCEDURE F(); BEGIN END F; BEGIN END T."

(* The lexer against its predecessor, kept as Lexer_oracle: the same tokens
   and locations, or the same error at the same location. *)
let lex_outcome tokenize src =
  match tokenize src with
  | toks -> Ok toks
  | exception M3l.M3l_error.Lex_error (l, m) -> Error (Some l, m)
  | exception Failure m -> Error (None, m) (* an integer literal out of range *)

let agrees_with_oracle src =
  lex_outcome M3l.Lexer.tokenize src = lex_outcome Lexer_oracle.tokenize src

let test_lex_oracle_corpus () =
  List.iter
    (fun (name, src) -> check Alcotest.bool name true (agrees_with_oracle src))
    (("nested comment", "MODULE M; (* a (* nested *) comment *) BEGIN END M.")
    :: Corpus.programs)

(* Random strings over the M3L alphabet, built from fragments that open and
   close comments, strings and character literals, escapes (valid or not),
   keywords, oversized integers, NUL bytes and characters outside the
   language. *)
let gen_lex_source =
  let open QCheck.Gen in
  let fragments =
    [ "(*"; "*)"; "("; "*"; ")"; "'"; "\""; "\\"; "\\n"; "\\q"; "\\0"; "'a'"; "'\\''";
      "\"s\\\"t\""; "MODULE"; "END"; "WHILE"; "Module"; "x_1"; "99999999999999999999";
      "42"; ":="; ".."; "<="; ">="; "#"; "^"; "\000"; "\n"; "\r\n"; "\t"; " "; "@"; "{"; "\255" ]
  in
  let alphabet = "abzAZ_09:=.<>;,()[]^#+-*'\"\\ \t\r\n\000@{~" in
  let char = map (String.make 1) (oneofl (List.init (String.length alphabet) (String.get alphabet))) in
  let piece = frequency [ (3, oneofl fragments); (2, char) ] in
  map (String.concat "") (list_size (int_range 0 30) piece)

let prop_lex_oracle =
  QCheck.Test.make ~name:"lexer matches the oracle on random strings" ~count:2000
    (QCheck.make ~print:String.escaped gen_lex_source)
    agrees_with_oracle

let () =
  Alcotest.run "frontend"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lex_basics;
          Alcotest.test_case "keywords" `Quick test_lex_keywords;
          Alcotest.test_case "operators" `Quick test_lex_operators;
          Alcotest.test_case "literals" `Quick test_lex_literals;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "positions" `Quick test_lex_positions;
          Alcotest.test_case "matches the oracle on the corpus" `Quick test_lex_oracle_corpus;
          QCheck_alcotest.to_alcotest prop_lex_oracle;
        ] );
      ( "parser",
        [
          Alcotest.test_case "module" `Quick test_parse_module;
          Alcotest.test_case "mismatched END" `Quick test_parse_mismatched_end;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "statements" `Quick test_parse_statements;
          Alcotest.test_case "types" `Quick test_parse_types;
          Alcotest.test_case "procedures" `Quick test_parse_procs;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "basics" `Quick test_tc_basics;
          Alcotest.test_case "recursive types" `Quick test_tc_recursive_types;
          Alcotest.test_case "NIL and refs" `Quick test_tc_nil_and_refs;
          Alcotest.test_case "arrays" `Quick test_tc_arrays;
          Alcotest.test_case "procedures" `Quick test_tc_procedures;
          Alcotest.test_case "intrinsics" `Quick test_tc_intrinsics;
          Alcotest.test_case "WITH" `Quick test_tc_with;
          Alcotest.test_case "builtin IO" `Quick test_tc_builtin_io;
          Alcotest.test_case "aggregate assignment" `Quick test_tc_assign_aggregates;
          Alcotest.test_case "duplicates" `Quick test_tc_duplicates;
        ] );
    ]
