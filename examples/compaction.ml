(* Compaction: what precise tables buy you.

   The same fragmentation-inducing workload — allocate big and small
   objects interleaved, drop the big ones — run under the table-driven
   compacting collector and under the conservative non-moving baseline
   (the incremental collector's mark-sweep core with ambiguous roots).
   The precise collector ends with a contiguous heap; the conservative one
   ends with a free list full of holes.

     dune exec examples/compaction.exe *)

let source =
  {|
MODULE Frag;

TYPE
  Big = REF ARRAY OF INTEGER;
  SmallRec = RECORD v: INTEGER; next: Small END;
  Small = REF SmallRec;

VAR keep: Small; b: Big; i: INTEGER; count: INTEGER;

BEGIN
  keep := NIL;
  FOR i := 1 TO 120 DO
    (* a big transient object ... *)
    b := NEW(Big, 20);
    b[0] := i;
    (* ... and a small survivor between every two of them *)
    WITH n = NEW(Small) DO
      n.next := keep;
      keep := n
    END;
    keep.v := i
  END;
  count := 0;
  WHILE keep # NIL DO count := count + 1; keep := keep.next END;
  PutText("survivors: ");
  PutInt(count);
  PutLn()
END Frag.
|}

let () =
  let heap = 1500 in
  let options = { Driver.Compile.default_options with heap_words = heap } in
  (* Precise compacting collector. *)
  let img = Driver.Compile.compile ~options source in
  let st = Vm.Interp.create img in
  Gc.Cheney.install st;
  Vm.Interp.run st;
  Printf.printf "precise      : %s" (Vm.Interp.output st);
  Printf.printf "  collections=%d, free list: none (heap is compacted; bump allocation)\n"
    st.Vm.Interp.gc.Vm.Interp.collections;
  (* Conservative, non-moving. *)
  let img2 = Driver.Compile.compile ~options source in
  let st2 = Vm.Interp.create img2 in
  let _ = Gc.Incremental.install_conservative st2 in
  Vm.Interp.run st2;
  let blocks, total, largest = Vm.Interp.free_list_stats st2 in
  Printf.printf "conservative : %s" (Vm.Interp.output st2);
  Printf.printf "  collections=%d, free list: %d blocks, %d words free, largest %d\n"
    st2.Vm.Interp.gc.Vm.Interp.collections blocks total largest;
  assert (Vm.Interp.output st = Vm.Interp.output st2);
  print_endline "(same outputs; only the heap shapes differ)"
