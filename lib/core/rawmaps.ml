(** Raw (unencoded) per-gc-point garbage collection information, as handed
    over by the code generator. This is the conceptual content of the
    paper's three tables (§3): stack pointers, register pointers, and
    derivations — before any organization or compression is applied. *)

(** One derivation: [target = Σ plus − Σ minus + E].  Only the bases are
    recorded; E is recovered by inverting the operations (paper §3). *)
type deriv_entry = { target : Loc.t; plus : Loc.t list; minus : Loc.t list }

(** Ambiguous derivations (paper §4): the actual derivation of [target] is
    selected at run time by the value of the {e path variable} stored at
    [path_loc]. *)
type variant = {
  path_loc : Loc.t;
  cases : (int * deriv_entry) list; (* path value -> derivation *)
}

type gcpoint = {
  gp_index : int; (* instruction index of the call, within the function *)
  gp_offset : int; (* byte offset of the call within the function's code *)
  stack_ptrs : Loc.t list; (* live tidy pointers in stack words *)
  reg_ptrs : int list; (* registers holding live tidy pointers *)
  derivs : deriv_entry list; (* ordered: a derived value precedes its bases *)
  variants : variant list;
}

type proc_maps = {
  pm_fid : int;
  pm_name : string;
  pm_frame_size : int; (* words below the saved-FP slot *)
  pm_nargs : int; (* incoming argument words *)
  pm_saves : (int * int) list; (* (callee-saved reg, FP-relative offset) *)
  pm_code_bytes : int;
  pm_gcpoints : gcpoint list; (* sorted by gp_offset *)
}

let gcpoint_is_empty g = g.stack_ptrs = [] && g.reg_ptrs = [] && g.derivs = [] && g.variants = []

(** Order derivation entries so that every derived value comes before any of
    its base values (paper §3's second ordering rule); entries whose targets
    are not bases of others keep their relative order. Raises
    [Invalid_argument] on a cycle (impossible for well-formed derivations). *)
let order_derivs (entries : deriv_entry list) : deriv_entry list =
  (* target t must come before any entry whose target appears in t's bases. *)
  let n = List.length entries in
  let arr = Array.of_list entries in
  let uses_target i j =
    (* entry i has entry j's target among its bases -> i before j *)
    let bases = arr.(i).plus @ arr.(i).minus in
    List.exists (Loc.equal arr.(j).target) bases
  in
  let visited = Array.make n 0 (* 0 unvisited, 1 in progress, 2 done *) in
  let out = ref [] in
  let rec visit i =
    match visited.(i) with
    | 1 -> invalid_arg "Rawmaps.order_derivs: cyclic derivation"
    | 2 -> ()
    | _ ->
        visited.(i) <- 1;
        (* successors: entries that must come after i are those that have i's
           target as base... wait: i uses j's target => i must be adjusted
           before j; so j is a successor of i. *)
        for j = 0 to n - 1 do
          if j <> i && uses_target i j then visit j
        done;
        visited.(i) <- 2;
        out := arr.(i) :: !out
  in
  for i = 0 to n - 1 do
    visit i
  done;
  (* [out] currently lists entries such that successors (bases) were pushed
     first; reversing puts each derived value before its bases. *)
  !out

let pp_deriv fmt (d : deriv_entry) =
  Format.fprintf fmt "%a =" Loc.pp d.target;
  List.iter (fun b -> Format.fprintf fmt " +%a" Loc.pp b) d.plus;
  List.iter (fun b -> Format.fprintf fmt " -%a" Loc.pp b) d.minus;
  Format.fprintf fmt " + E"

let pp_gcpoint fmt g =
  Format.fprintf fmt "@[<v2>gc-point @%d (byte %d):@," g.gp_index g.gp_offset;
  Format.fprintf fmt "stack: [%s]@,"
    (String.concat "; " (List.map Loc.to_string g.stack_ptrs));
  Format.fprintf fmt "regs: [%s]@,"
    (String.concat "; " (List.map (fun r -> Printf.sprintf "r%d" r) g.reg_ptrs));
  List.iter (fun d -> Format.fprintf fmt "deriv: %a@," pp_deriv d) g.derivs;
  List.iter
    (fun v ->
      Format.fprintf fmt "variant on %a:@," Loc.pp v.path_loc;
      List.iter
        (fun (value, d) -> Format.fprintf fmt "  path=%d: %a@," value pp_deriv d)
        v.cases)
    g.variants;
  Format.fprintf fmt "@]"
