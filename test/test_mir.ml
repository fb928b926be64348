(* Lowering, kinds/derivations, liveness (dead-base rule), CFG utilities. *)

module Ir = Mir.Ir

let check = Alcotest.check

let lower ?(checks = false) src = Mir.Lower.program ~checks (M3l.Typecheck.check_source src)

let func_named (p : Ir.program) name =
  match Array.find_opt (fun (f : Ir.func) -> f.Ir.fname = name) p.Ir.funcs with
  | Some f -> f
  | None -> Alcotest.failf "no function %s" name

let all_instrs (f : Ir.func) =
  Array.to_list f.Ir.blocks |> List.concat_map (fun (b : Ir.block) -> b.Ir.instrs)

(* ------------------------------------------------------------------ *)
(* Kinds and derivations out of lowering                               *)
(* ------------------------------------------------------------------ *)

let test_ptr_kinds () =
  let p =
    lower
      "MODULE T; TYPE L = REF INTEGER; VAR g: L; x: INTEGER;\n\
       BEGIN g := NEW(L); x := g^ END T."
  in
  let main = p.Ir.funcs.(p.Ir.main_fid) in
  (* The NEW result temp must be a tidy pointer. *)
  let has_ptr_call =
    List.exists
      (fun i ->
        match i with
        | Ir.Call (Some t, Ir.Crt (Ir.Rt_alloc _), _) -> Ir.temp_kind main t = Ir.Kptr
        | _ -> false)
      (all_instrs main)
  in
  check Alcotest.bool "alloc result is Kptr" true has_ptr_call

let test_field_addr_derived () =
  (* The address of a heap record field used as a VAR argument must be a
     derived value whose base is visible. *)
  let p =
    lower
      "MODULE T;\n\
       TYPE R = RECORD a, b: INTEGER END; P = REF R;\n\
       VAR g: P;\n\
       PROCEDURE Take(VAR x: INTEGER); BEGIN x := 1 END Take;\n\
       BEGIN g := NEW(P); Take(g.b) END T."
  in
  let main = p.Ir.funcs.(p.Ir.main_fid) in
  let derived_args =
    List.exists
      (fun i ->
        match i with
        | Ir.Call (_, Ir.Cuser _, args) ->
            List.exists
              (function
                | Ir.Otemp t -> (
                    match Ir.temp_kind main t with Ir.Kderived _ -> true | _ -> false)
                | Ir.Oimm _ -> false)
              args
        | _ -> false)
      (all_instrs main)
  in
  check Alcotest.bool "VAR arg into heap is derived" true derived_args

let test_stack_addr_not_derived () =
  (* The address of a local passed by VAR is a stack address: no tables. *)
  let p =
    lower
      "MODULE T;\n\
       PROCEDURE Take(VAR x: INTEGER); BEGIN x := 1 END Take;\n\
       VAR v: INTEGER;\n\
       PROCEDURE Go(); VAR loc: INTEGER; BEGIN Take(loc) END Go;\n\
       BEGIN Go() END T."
  in
  let go = func_named p "Go" in
  let ok =
    List.for_all
      (fun i ->
        match i with
        | Ir.Call (_, Ir.Cuser _, args) ->
            List.for_all
              (function
                | Ir.Otemp t -> Ir.temp_kind go t = Ir.Kstack
                | Ir.Oimm _ -> true)
              args
        | _ -> true)
      (all_instrs go)
  in
  check Alcotest.bool "local VAR arg is Kstack" true ok

let test_with_alias_slot () =
  let p =
    lower
      "MODULE T;\n\
       TYPE R = RECORD a: INTEGER END; P = REF R;\n\
       VAR g: P;\n\
       BEGIN g := NEW(P); WITH x = g.a DO x := 2 END END T."
  in
  let main = p.Ir.funcs.(p.Ir.main_fid) in
  let has_derived_slot =
    Array.exists
      (fun (li : Ir.local_info) ->
        match li.Ir.l_slot with Ir.Sderived _ -> true | _ -> false)
      main.Ir.locals
  in
  check Alcotest.bool "WITH alias over heap place is a derived slot" true has_derived_slot

let test_mutated_param_shadowed () =
  let p =
    lower
      "MODULE T;\n\
       PROCEDURE F(x: INTEGER): INTEGER; BEGIN x := x + 1; RETURN x END F;\n\
       VAR r: INTEGER; BEGIN r := F(1) END T."
  in
  let f = func_named p "F" in
  let has_shadow =
    Array.exists (fun (li : Ir.local_info) -> li.Ir.l_name = "x$shadow") f.Ir.locals
  in
  check Alcotest.bool "mutated by-value param gets a shadow local" true has_shadow;
  (* And the incoming parameter slot itself is never stored to. *)
  let param_stored =
    List.exists
      (fun i -> match i with Ir.St_local (0, _, _) -> true | _ -> false)
      (all_instrs f)
  in
  check Alcotest.bool "incoming param slot is read-only" false param_stored

let test_checks_emit_guards () =
  let count_rt rc p =
    Array.fold_left
      (fun acc (f : Ir.func) ->
        acc
        + List.length
            (List.filter
               (fun i -> match i with Ir.Call (_, Ir.Crt r, _) -> r = rc | _ -> false)
               (all_instrs f)))
      0 p.Ir.funcs
  in
  let src =
    "MODULE T; TYPE V = REF ARRAY OF INTEGER; VAR v: V; x: INTEGER;\n\
     BEGIN v := NEW(V, 5); x := v[3] END T."
  in
  let with_checks = lower ~checks:true src in
  let without = lower ~checks:false src in
  check Alcotest.bool "bounds guard present with checks" true
    (count_rt Ir.Rt_bounds_error with_checks > 0);
  check Alcotest.int "no guards without checks" 0 (count_rt Ir.Rt_bounds_error without);
  check Alcotest.int "no nil guards without checks" 0 (count_rt Ir.Rt_nil_error without)

(* ------------------------------------------------------------------ *)
(* Liveness: the dead-base rule                                        *)
(* ------------------------------------------------------------------ *)

let test_dead_base_rule () =
  (* Build a tiny function by hand: t0 := ptr; t1 := t0 + 8 (derived);
     call; use t1. The base t0 must be live at the call even though its
     last textual use is before it. *)
  let f : Ir.func =
    {
      Ir.fid = 0;
      fname = "h";
      params = [];
      nparams = 0;
      ret = false;
      ret_ptr = false;
      locals =
        [|
          {
            Ir.l_name = "p";
            l_size = 1;
            l_slot = Ir.Sptr;
            l_user = true;
            l_addr_taken = false;
            l_stores = 0;
          };
        |];
      blocks =
        [|
          {
            Ir.instrs =
              [
                Ir.Ld_local (0, 0, 0);
                Ir.Bin (Ir.Add, 1, Ir.Otemp 0, Ir.Oimm 8);
                Ir.Call (None, Ir.Crt Ir.Rt_gc_check, []);
                Ir.Store (Ir.Otemp 1, 0, Ir.Oimm 5);
              ];
            term = Ir.Ret None;
          };
        |];
      temp_kinds =
        [| Ir.Kptr; Ir.Kderived { Mir.Deriv.plus = [ Mir.Deriv.Btemp 0 ]; minus = [] } |];
      ntemps = 2;
    }
  in
  let liv = Mir.Liveness.compute f in
  let live_t, _ = Mir.Liveness.live_at_gcpoint liv 0 2 in
  check Alcotest.bool "derived temp live at call" true (Support.Bitset.mem live_t 1);
  check Alcotest.bool "base temp live at call (dead-base rule)" true
    (Support.Bitset.mem live_t 0)

let test_liveness_kill () =
  (* A scalar temp dead after its last use is not live at a later call. *)
  let f : Ir.func =
    {
      Ir.fid = 0;
      fname = "h";
      params = [];
      nparams = 0;
      ret = false;
      ret_ptr = false;
      locals = [||];
      blocks =
        [|
          {
            Ir.instrs =
              [
                Ir.Mov (0, Ir.Oimm 1);
                Ir.Mov (1, Ir.Otemp 0);
                Ir.Call (None, Ir.Crt Ir.Rt_gc_check, []);
              ];
            term = Ir.Ret None;
          };
        |];
      temp_kinds = [| Ir.Kscalar; Ir.Kscalar |];
      ntemps = 2;
    }
  in
  let liv = Mir.Liveness.compute f in
  let live_t, _ = Mir.Liveness.live_at_gcpoint liv 0 2 in
  check Alcotest.bool "dead scalar not live" false (Support.Bitset.mem live_t 0)

let test_dead_base_rule_locals () =
  (* A derived local and an ambiguous local are read after a call; their
     bases (a local, a temp, and the ambiguous local's path variable) have
     no later use of their own and are live at the call only by the rule. *)
  let local name slot =
    { Ir.l_name = name; l_size = 1; l_slot = slot; l_user = true; l_addr_taken = false; l_stores = 0 }
  in
  let on b = { Mir.Deriv.plus = [ b ]; minus = [] } in
  let f : Ir.func =
    {
      Ir.fid = 0;
      fname = "h";
      params = [];
      nparams = 0;
      ret = false;
      ret_ptr = false;
      locals =
        [|
          local "p" Ir.Sptr;
          local "q" Ir.Sptr;
          local "path" Ir.Sscalar;
          local "d" (Ir.Sderived (on (Mir.Deriv.Blocal 0)));
          local "a"
            (Ir.Sambig
               {
                 Ir.path_local = 2;
                 cases = [ (0, on (Mir.Deriv.Blocal 1)); (1, on (Mir.Deriv.Btemp 0)) ];
               });
        |];
      blocks =
        [|
          {
            Ir.instrs =
              [
                Ir.Ld_local (0, 0, 0);
                Ir.Call (None, Ir.Crt Ir.Rt_gc_check, []);
                Ir.Ld_local (1, 3, 0);
                Ir.Ld_local (2, 4, 0);
              ];
            term = Ir.Ret None;
          };
        |];
      temp_kinds = [| Ir.Kptr; Ir.Kscalar; Ir.Kscalar |];
      ntemps = 3;
    }
  in
  let liv = Mir.Liveness.compute f in
  let live_t, live_l = Mir.Liveness.live_at_gcpoint liv 0 1 in
  let members b = List.rev (Support.Bitset.fold List.cons b []) in
  check Alcotest.(list int) "temps live at the call" [ 0 ] (members live_t);
  check Alcotest.(list int) "locals live at the call" [ 0; 1; 2; 3; 4 ] (members live_l);
  check Alcotest.(option string) "agrees with the oracle" None (Liveness_oracle.disagreement f)

(* The worklist analysis with precomputed closures gives exactly the sets
   of the round-robin reference, on every function the compiler sees for
   the corpus, unoptimized and optimized. *)
let test_liveness_matches_oracle () =
  List.iter
    (fun (name, src) ->
      List.iter
        (fun optimize ->
          let options = { Driver.Compile.default_options with optimize } in
          Array.iter
            (fun f ->
              Option.iter
                (Alcotest.failf "%s at O%d: %s" name (Bool.to_int optimize))
                (Liveness_oracle.disagreement f))
            (Driver.Compile.to_mir ~options src).Ir.funcs)
        [ false; true ])
    Corpus.programs

(* The closure walks sets it grows: a chain of derived temps whose bases
   have higher indices needs one more pass per link. *)
let test_close_uses_chain () =
  let f : Ir.func =
    {
      Ir.fid = 0;
      fname = "h";
      params = [];
      nparams = 0;
      ret = false;
      ret_ptr = false;
      locals = [||];
      blocks = [| { Ir.instrs = []; term = Ir.Ret None } |];
      temp_kinds =
        [|
          Ir.Kderived { Mir.Deriv.plus = [ Mir.Deriv.Btemp 1 ]; minus = [] };
          Ir.Kderived { Mir.Deriv.plus = [ Mir.Deriv.Btemp 2 ]; minus = [] };
          Ir.Kderived { Mir.Deriv.plus = [ Mir.Deriv.Btemp 3 ]; minus = [] };
          Ir.Kptr;
        |];
      ntemps = 4;
    }
  in
  let temps = Support.Bitset.create 4 and locals = Support.Bitset.create 0 in
  Support.Bitset.set temps 0;
  Mir.Liveness.close_uses f temps locals;
  check Alcotest.(list int) "every base of the chain" [ 0; 1; 2; 3 ]
    (List.rev (Support.Bitset.fold List.cons temps []))

(* ------------------------------------------------------------------ *)
(* CFG utilities                                                       *)
(* ------------------------------------------------------------------ *)

let test_natural_loops () =
  let p =
    lower
      "MODULE T; VAR i, s: INTEGER; BEGIN\n\
       i := 0; WHILE i < 10 DO s := s + i; i := i + 1 END END T."
  in
  let main = p.Ir.funcs.(p.Ir.main_fid) in
  let loops = Mir.Cfg.natural_loops main in
  check Alcotest.int "one loop" 1 (List.length loops);
  let l = List.hd loops in
  check Alcotest.bool "header in body" true (Support.Ints.Iset.mem l.Mir.Cfg.header l.Mir.Cfg.body)

let test_dominators () =
  let p =
    lower
      "MODULE T; VAR x: INTEGER; BEGIN\n\
       IF x > 0 THEN x := 1 ELSE x := 2 END; x := 3 END T."
  in
  let main = p.Ir.funcs.(p.Ir.main_fid) in
  let idom = Mir.Cfg.dominators main in
  (* Entry dominates every reachable block. *)
  Array.iteri
    (fun b _ ->
      if idom.(b) <> -1 then
        check Alcotest.bool (Printf.sprintf "entry dom %d" b) true
          (Mir.Cfg.dominates idom 0 b))
    main.Ir.blocks

let test_preheader () =
  let p =
    lower
      "MODULE T; VAR i: INTEGER; BEGIN i := 0; WHILE i < 5 DO i := i + 1 END END T."
  in
  let main = p.Ir.funcs.(p.Ir.main_fid) in
  let nb_before = Array.length main.Ir.blocks in
  let l = List.hd (Mir.Cfg.natural_loops main) in
  let ph = Mir.Cfg.insert_preheader main l in
  check Alcotest.int "one new block" (nb_before + 1) (Array.length main.Ir.blocks);
  (* The preheader jumps to the header, and no block outside the loop jumps
     directly to the header anymore. *)
  check Alcotest.bool "preheader jumps to header" true
    (main.Ir.blocks.(ph).Ir.term = Ir.Jmp l.Mir.Cfg.header);
  Array.iteri
    (fun b (blk : Ir.block) ->
      if b <> ph && not (Support.Ints.Iset.mem b l.Mir.Cfg.body) then
        List.iter
          (fun s ->
            check Alcotest.bool "no outside edge to header" false (s = l.Mir.Cfg.header))
          (Ir.term_succs blk.Ir.term))
    main.Ir.blocks

(* The shared analysis answers from its snapshot until a terminator or the
   block count changes, and then agrees with a fresh computation. *)
let test_analysis_snapshot () =
  let p =
    lower
      "MODULE T; VAR i: INTEGER; BEGIN i := 0; WHILE i < 5 DO i := i + 1 END END T."
  in
  let main = p.Ir.funcs.(p.Ir.main_fid) in
  let a = Mir.Cfg.analysis () in
  let agrees () =
    let repr = Opt_oracle.loops_repr in
    check Alcotest.bool "loops" true
      (repr (Mir.Cfg.loops a main) = repr (Mir.Cfg.natural_loops main));
    check Alcotest.(array int) "idom" (Mir.Cfg.dominators main) (Mir.Cfg.idom a main)
  in
  agrees ();
  check Alcotest.(pair int int) "computed once, then reused" (1, 1)
    (a.Mir.Cfg.computed, a.Mir.Cfg.reused);
  ignore (Mir.Cfg.insert_preheader main (List.hd (Mir.Cfg.loops a main)));
  agrees ();
  check Alcotest.int "a new block recomputes" 2 a.Mir.Cfg.computed;
  (* Retarget the preheader's jump straight back to itself: same block
     count, one new terminator. *)
  let ph = Array.length main.Ir.blocks - 1 in
  main.Ir.blocks.(ph).Ir.term <- Ir.Jmp ph;
  agrees ();
  check Alcotest.int "a new terminator recomputes" 3 a.Mir.Cfg.computed

let test_deriv_algebra () =
  let open Mir.Deriv in
  let a = of_base (Btemp 1) in
  let b = of_base (Btemp 2) in
  let s = add a b in
  check Alcotest.int "two plus bases" 2 (List.length s.plus);
  let d = sub s b in
  check Alcotest.bool "b cancels" true (equal d a);
  let n = neg a in
  check Alcotest.bool "neg swaps" true (n.minus = [ Btemp 1 ] && n.plus = []);
  check Alcotest.bool "empty normal form" true (is_empty (sub a a))

let () =
  Alcotest.run "mir"
    [
      ( "lowering",
        [
          Alcotest.test_case "pointer kinds" `Quick test_ptr_kinds;
          Alcotest.test_case "heap field addr derived" `Quick test_field_addr_derived;
          Alcotest.test_case "stack addr untracked" `Quick test_stack_addr_not_derived;
          Alcotest.test_case "WITH alias derived slot" `Quick test_with_alias_slot;
          Alcotest.test_case "param shadowing" `Quick test_mutated_param_shadowed;
          Alcotest.test_case "checks emit guards" `Quick test_checks_emit_guards;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "dead-base rule" `Quick test_dead_base_rule;
          Alcotest.test_case "kill" `Quick test_liveness_kill;
          Alcotest.test_case "dead-base rule through locals" `Quick test_dead_base_rule_locals;
          Alcotest.test_case "close_uses follows a chain" `Quick test_close_uses_chain;
          Alcotest.test_case "matches the round-robin oracle" `Quick
            test_liveness_matches_oracle;
        ] );
      ( "cfg",
        [
          Alcotest.test_case "natural loops" `Quick test_natural_loops;
          Alcotest.test_case "dominators" `Quick test_dominators;
          Alcotest.test_case "preheader" `Quick test_preheader;
          Alcotest.test_case "analysis snapshot" `Quick test_analysis_snapshot;
          Alcotest.test_case "derivation algebra" `Quick test_deriv_algebra;
        ] );
    ]
