(** The flat word store backing the UVM memory.

    The machine's memory used to be a plain OCaml [int array]; at large
    heap sizes (hundreds of megawords) that puts gigabytes on the host
    runtime's heap, where the host GC scans and the allocator fragments
    it. A [Bigarray.Array1] of native ints is flat and off the host heap
    entirely: the host GC never walks it.

    The hot accessors ([unsafe_get]/[unsafe_set]) compile to single loads
    and stores in their callers only when this module is built without
    [-opaque], as the workspace's release profile builds it. Under dune's
    dev profile ([--profile dev]) every module is opaque, and each access
    from another module becomes a call through [caml_apply]. Callers that
    need the VM's bounds discipline ([Interp.read]/[write], which both
    engines use) perform their own explicit range test — with the VM's
    error message — and then use the unsafe accessor, the same structure
    the [int array] code had. The checked [get]/[set] are the
    cold-path/cool-path accessors for collector and verifier code. *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** A zeroed store of [words] words. *)
let create words : t =
  let m = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words in
  Bigarray.Array1.fill m 0;
  m

let length (m : t) = Bigarray.Array1.dim m

(* Bounds-checked accessors (Invalid_argument on violation — callers on VM
   paths check first and report through Vm_error instead). *)
let get (m : t) i = Bigarray.Array1.get m i
let set (m : t) i v = Bigarray.Array1.set m i v
let unsafe_get (m : t) i = Bigarray.Array1.unsafe_get m i
let unsafe_set (m : t) i v = Bigarray.Array1.unsafe_set m i v

(** Set [len] words starting at [pos] to [v]. Small runs (frame zeroing,
    small-object init) take a direct loop; big runs (bench-scale open
    arrays) go through the runtime's fill on a sub-view. *)
let fill (m : t) pos len v =
  if pos < 0 || len < 0 || pos + len > length m then invalid_arg "Mem.fill";
  if len < 64 then
    for i = pos to pos + len - 1 do
      Bigarray.Array1.unsafe_set m i v
    done
  else Bigarray.Array1.fill (Bigarray.Array1.sub m pos len) v

(** Copy [len] words from [src] to [dst] within the store (memmove
    semantics, like [Array.blit] had). Small objects — the common case on
    the Cheney copy path — avoid the sub-view allocations. *)
let blit (m : t) ~src ~dst ~len =
  if src < 0 || dst < 0 || len < 0 || src + len > length m || dst + len > length m
  then invalid_arg "Mem.blit";
  if len < 32 then
    if dst <= src then
      for i = 0 to len - 1 do
        Bigarray.Array1.unsafe_set m (dst + i) (Bigarray.Array1.unsafe_get m (src + i))
      done
    else
      for i = len - 1 downto 0 do
        Bigarray.Array1.unsafe_set m (dst + i) (Bigarray.Array1.unsafe_get m (src + i))
      done
  else Bigarray.Array1.(blit (sub m src len) (sub m dst len))

(** A fresh store holding the same words (test snapshots). *)
let copy (m : t) : t =
  let d = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (length m) in
  Bigarray.Array1.blit m d;
  d

(** Word-for-word equality (the differential suites' heap-image check). *)
let equal (a : t) (b : t) = length a = length b && a = b
