(* UVM semantics: arithmetic, control flow, machine errors, frame
   behaviour, instruction encoding. Exercised through compiled M3L. *)

let check = Alcotest.check

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Every run names its collector and engine: the precise collector on
   the threaded engine, except where [run] compares the two engines. *)
let run_source = Driver.Compile.run_source ~collector:Driver.Compile.Precise ~threaded:true

let run ?(options = Driver.Compile.default_options) src =
  let out threaded =
    (Driver.Compile.run_source ~options ~collector:Driver.Compile.Precise ~threaded src)
      .Driver.Compile.output
  in
  let t = out true in
  check Alcotest.string "switch engine agrees" t (out false);
  t

let wrap body = Printf.sprintf "MODULE T;\n%s T.\n" body

let expect_output name src expected = check Alcotest.string name expected (run src)

let test_arith () =
  expect_output "add/sub/mul"
    (wrap "VAR x: INTEGER; BEGIN x := (2 + 3) * 4 - 5; PutInt(x) END")
    "15";
  (* Modula-3 DIV rounds toward minus infinity; MOD takes divisor's sign. *)
  expect_output "div floor"
    (wrap "VAR x: INTEGER; BEGIN PutInt((-7) DIV 2); PutChar(' '); PutInt(7 DIV 2) END")
    "-4 3";
  expect_output "mod sign"
    (wrap "VAR x: INTEGER; BEGIN PutInt((-7) MOD 2); PutChar(' '); PutInt(7 MOD 2) END")
    "1 1";
  expect_output "min/max/abs"
    (wrap "BEGIN PutInt(MIN(3, -4)); PutInt(MAX(3, -4)); PutInt(ABS(-9)) END")
    "-439";
  expect_output "ord/chr" (wrap "BEGIN PutInt(ORD('A')); PutChar(CHR(66)) END") "65B"

let test_control () =
  expect_output "if chain"
    (wrap
       "VAR x: INTEGER; BEGIN x := 7;\n\
        IF x < 5 THEN PutInt(1) ELSIF x < 10 THEN PutInt(2) ELSE PutInt(3) END END")
    "2";
  expect_output "while" (wrap "VAR i: INTEGER; BEGIN i := 0; WHILE i < 4 DO i := i + 1 END; PutInt(i) END") "4";
  expect_output "for by"
    (wrap "VAR i, s: INTEGER; BEGIN s := 0; FOR i := 10 TO 0 BY -2 DO s := s + i END; PutInt(s) END")
    "30";
  expect_output "for zero trips"
    (wrap "VAR i, s: INTEGER; BEGIN s := 0; FOR i := 5 TO 1 DO s := 99 END; PutInt(s) END")
    "0";
  expect_output "short circuit and"
    (wrap
       "TYPE L = REF INTEGER; VAR l: L; f: BOOLEAN;\n\
        BEGIN l := NIL; f := l # NIL AND l^ > 0; IF f THEN PutInt(1) ELSE PutInt(0) END END")
    "0";
  expect_output "short circuit or"
    (wrap
       "TYPE L = REF INTEGER; VAR l: L; f: BOOLEAN;\n\
        BEGIN l := NIL; f := l = NIL OR l^ > 0; IF f THEN PutInt(1) ELSE PutInt(0) END END")
    "1"

let test_procedures () =
  expect_output "recursion"
    (wrap
       "PROCEDURE Fib(n: INTEGER): INTEGER;\n\
        BEGIN IF n < 2 THEN RETURN n END; RETURN Fib(n-1) + Fib(n-2) END Fib;\n\
        BEGIN PutInt(Fib(15)) END")
    "610";
  expect_output "var params"
    (wrap
       "PROCEDURE Swap(VAR a, b: INTEGER);\n\
        VAR t: INTEGER; BEGIN t := a; a := b; b := t END Swap;\n\
        VAR x, y: INTEGER;\n\
        BEGIN x := 1; y := 2; Swap(x, y); PutInt(x); PutInt(y) END")
    "21";
  expect_output "many args"
    (wrap
       "PROCEDURE S(a, b, c, d, e, f, g, h: INTEGER): INTEGER;\n\
        BEGIN RETURN a + b + c + d + e + f + g + h END S;\n\
        BEGIN PutInt(S(1, 2, 3, 4, 5, 6, 7, 8)) END")
    "36"

let test_data () =
  expect_output "local fixed array"
    (wrap
       "VAR a: ARRAY [2..6] OF INTEGER; i, s: INTEGER;\n\
        BEGIN FOR i := 2 TO 6 DO a[i] := i END; s := 0;\n\
        FOR i := 2 TO 6 DO s := s + a[i] END; PutInt(s) END")
    "20";
  expect_output "records and refs"
    (wrap
       "TYPE R = RECORD x, y: INTEGER END; P = REF R;\n\
        VAR p: P; BEGIN p := NEW(P); p.x := 3; p.y := 4; PutInt(p.x * p.y) END")
    "12";
  expect_output "nested records"
    (wrap
       "TYPE Inner = RECORD a, b: INTEGER END;\n\
        Outer = RECORD pre: INTEGER; mid: Inner; post: INTEGER END;\n\
        P = REF Outer;\n\
        VAR p: P; BEGIN p := NEW(P); p.mid.b := 42; p.post := 1; PutInt(p.mid.b) END")
    "42";
  expect_output "open arrays"
    (wrap
       "TYPE V = REF ARRAY OF INTEGER; VAR v: V; i, s: INTEGER;\n\
        BEGIN v := NEW(V, 8); FOR i := 0 TO NUMBER(v) - 1 DO v[i] := i * i END;\n\
        s := 0; FOR i := 0 TO 7 DO s := s + v[i] END; PutInt(s) END")
    "140";
  expect_output "texts"
    (wrap "VAR t: TEXT; BEGIN t := \"hello\"; PutInt(NUMBER(t)); PutChar(t[1]) END")
    "5e"

let expect_guest_error name src fragment =
  match run_source src with
  | exception Vm.Interp.Guest_error msg ->
      check Alcotest.bool
        (name ^ ": message mentions " ^ fragment)
        true
        (contains ~needle:fragment msg)
  | _ -> Alcotest.failf "%s: expected a guest error" name

let test_runtime_errors () =
  expect_guest_error "nil deref"
    (wrap "TYPE P = REF INTEGER; VAR p: P; x: INTEGER; BEGIN p := NIL; x := p^ END")
    "NIL";
  expect_guest_error "bounds low"
    (wrap
       "VAR a: ARRAY [2..6] OF INTEGER; i: INTEGER; BEGIN i := 1; a[i] := 0 END")
    "range";
  expect_guest_error "bounds high open"
    (wrap
       "TYPE V = REF ARRAY OF INTEGER; VAR v: V; i: INTEGER;\n\
        BEGIN v := NEW(V, 3); i := 3; v[i] := 1 END")
    "range";
  (* Without checks, the same NIL dereference is a machine-level fault. *)
  let options = { Driver.Compile.default_options with checks = false } in
  match
    run_source ~options
      (wrap "TYPE P = REF INTEGER; VAR p: P; x: INTEGER; BEGIN p := NIL; x := p^ END")
  with
  | exception Vm.Vm_error.Error _ -> ()
  | r ->
      (* Reading M[1] happens to be silent; accept either a fault or a read
         of the reserved region. *)
      ignore r

let test_div_by_zero () =
  match
    run_source
      (wrap "VAR x, y: INTEGER; BEGIN y := 0; x := 4 DIV y; PutInt(x) END")
  with
  | exception Vm.Vm_error.Error e ->
      check Alcotest.bool "mentions zero" true
        (contains ~needle:"zero" (Vm.Vm_error.to_string e))
  | _ -> Alcotest.fail "expected division fault"

let test_stack_overflow () =
  let src =
    wrap
      "PROCEDURE Loop(n: INTEGER): INTEGER; BEGIN RETURN Loop(n + 1) END Loop;\n\
       BEGIN PutInt(Loop(0)) END"
  in
  match
    run_source
      ~options:{ Driver.Compile.default_options with stack_words = 2000 }
      src
  with
  | exception Vm.Vm_error.Error e ->
      check Alcotest.bool "stack overflow" true
        (contains ~needle:"stack" (Vm.Vm_error.to_string e))
  | _ -> Alcotest.fail "expected stack overflow"

let test_heap_exhaustion () =
  let src =
    wrap
      "TYPE Node = RECORD v: INTEGER; n: L END; L = REF Node;\n\
       VAR l, keep: L; i: INTEGER;\n\
       BEGIN keep := NIL;\n\
       FOR i := 1 TO 1000 DO l := NEW(L); l.n := keep; keep := l END END"
  in
  match
    run_source
      ~options:{ Driver.Compile.default_options with heap_words = 100 }
      src
  with
  | exception Vm.Vm_error.Error e ->
      check Alcotest.bool "heap exhausted" true
        (contains ~needle:"heap" (Vm.Vm_error.to_string e))
  | _ -> Alcotest.fail "expected heap exhaustion (everything is live)"

let test_fuel () =
  let src = wrap "VAR x: INTEGER; BEGIN x := 0; WHILE TRUE DO x := x + 1 END END" in
  match run_source ~fuel:10_000 src with
  | exception Vm.Vm_error.Error _ -> ()
  | _ -> Alcotest.fail "expected out-of-fuel"

(* Regression: [Interp.reset] must clear buffered guest output — a reused
   machine used to replay the previous run's text in front of its own. *)
let test_reset_clears_output () =
  let img = Driver.Compile.compile (wrap "BEGIN PutInt(7) END") in
  let st = Vm.Interp.create img in
  Vm.Interp.run st;
  check Alcotest.string "first run" "7" (Vm.Interp.output st);
  Vm.Interp.reset st;
  Vm.Interp.run st;
  check Alcotest.string "output does not accumulate across reset" "7"
    (Vm.Interp.output st)

(* ------------------------------------------------------------------ *)
(* Instruction encoding model                                          *)
(* ------------------------------------------------------------------ *)

let test_insn_sizes () =
  let open Machine in
  check Alcotest.int "mov r,r" 3 (Encode_insn.bytes (Insn.Mov (Insn.Reg 1, Insn.Reg 2)));
  check Alcotest.bool "mem disp grows" true
    (Encode_insn.bytes (Insn.Mov (Insn.Reg 1, Insn.Mem (2, 1000)))
    > Encode_insn.bytes (Insn.Mov (Insn.Reg 1, Insn.Mem (2, 1))));
  let code = [| Insn.Jmp 0; Insn.Leave; Insn.Ret 2 |] in
  let offs = Encode_insn.offsets code in
  check Alcotest.int "offsets length" 4 (Array.length offs);
  check Alcotest.int "total" (Encode_insn.code_bytes code) offs.(3);
  (* Offsets strictly increase: every instruction has positive size. *)
  for i = 0 to 2 do
    check Alcotest.bool "monotonic" true (offs.(i + 1) > offs.(i))
  done

let test_image_layout () =
  let img =
    Driver.Compile.compile
      (wrap "VAR g: INTEGER; t: TEXT; BEGIN g := 1; t := \"ab\" END")
  in
  let open Vm.Image in
  (* Heap last: the heap verifier takes the heap region to run from
     [heap_base] to the end of the store. *)
  check Alcotest.bool "globals below stack below heap" true
    (img.globals_base < img.stack_base && img.stack_base < img.heap_base);
  check Alcotest.bool "stack + two semispaces" true
    (img.stack_top = img.stack_base + 16384
    && img.heap_base >= img.stack_top
    && img.total_words = img.heap_base + (2 * img.semi_words));
  (* The text literal is installed with a header and its two chars. *)
  check Alcotest.int "one text" 1 (Array.length img.text_addrs);
  let addr = img.text_addrs.(0) in
  check Alcotest.bool "text words present" true
    (List.mem_assoc (addr + 1) img.static_init
    && List.assoc (addr + 1) img.static_init = 2)

let () =
  Alcotest.run "vm"
    [
      ( "semantics",
        [
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "control flow" `Quick test_control;
          Alcotest.test_case "procedures" `Quick test_procedures;
          Alcotest.test_case "data structures" `Quick test_data;
        ] );
      ( "faults",
        [
          Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
          Alcotest.test_case "division by zero" `Quick test_div_by_zero;
          Alcotest.test_case "stack overflow" `Quick test_stack_overflow;
          Alcotest.test_case "heap exhaustion" `Quick test_heap_exhaustion;
          Alcotest.test_case "fuel" `Quick test_fuel;
          Alcotest.test_case "reset clears output" `Quick test_reset_clears_output;
        ] );
      ( "encoding",
        [
          Alcotest.test_case "insn sizes" `Quick test_insn_sizes;
          Alcotest.test_case "image layout" `Quick test_image_layout;
        ] );
    ]
