(* The reference semantics that Profile's side array is tested against: the
   same allocation, copy and collection events applied to a table keyed by
   heap address, which holds every keyed object as (site id, words) and
   sweeps a collection by visiting every key. Slow and obviously faithful
   to the definition; test-only. *)

type t = {
  stats : Profile.site_stats array;
  live : (int, int * int) Hashtbl.t; (* heap addr -> (site id, words) *)
  mutable cur_minor : bool;
  mutable collections : int;
  mutable minor_collections : int;
}

let create nsites =
  {
    stats = Array.init nsites (fun _ -> Profile.fresh_stats ());
    live = Hashtbl.create 64;
    cur_minor = false;
    collections = 0;
    minor_collections = 0;
  }

let stat t site = if site >= 0 && site < Array.length t.stats then Some t.stats.(site) else None

let credit_dead t site words =
  match stat t site with
  | Some st ->
      st.Profile.st_dead_objects <- st.Profile.st_dead_objects + 1;
      st.Profile.st_dead_words <- st.Profile.st_dead_words + words
  | None -> ()

let on_alloc t ~site ~addr ~words =
  (match Hashtbl.find_opt t.live addr with
  | Some (old_site, old_words) -> credit_dead t old_site old_words
  | None -> ());
  Hashtbl.replace t.live addr (site, words);
  match stat t site with
  | Some st ->
      st.Profile.st_allocs <- st.Profile.st_allocs + 1;
      st.Profile.st_alloc_words <- st.Profile.st_alloc_words + words
  | None -> ()

let begin_collection t ~minor = t.cur_minor <- minor

let on_copy t ~src ~dst ~words =
  match Hashtbl.find_opt t.live src with
  | None -> ()
  | Some (site, _) -> (
      Hashtbl.remove t.live src;
      Hashtbl.replace t.live dst (site, words);
      match stat t site with
      | Some st when t.cur_minor ->
          st.Profile.st_minor_survivals <- st.Profile.st_minor_survivals + 1;
          st.Profile.st_minor_words <- st.Profile.st_minor_words + words
      | Some st ->
          st.Profile.st_full_survivals <- st.Profile.st_full_survivals + 1;
          st.Profile.st_full_words <- st.Profile.st_full_words + words
      | None -> ())

let end_collection t ~src_lo ~src_hi =
  let dead = ref [] in
  Hashtbl.iter
    (fun addr entry -> if addr >= src_lo && addr < src_hi then dead := (addr, entry) :: !dead)
    t.live;
  List.iter
    (fun (addr, (site, words)) ->
      Hashtbl.remove t.live addr;
      credit_dead t site words)
    !dead;
  t.collections <- t.collections + 1;
  if t.cur_minor then t.minor_collections <- t.minor_collections + 1

let site_of_addr t addr =
  match Hashtbl.find_opt t.live addr with Some (site, _) -> site | None -> -1

(* Per site, the objects still keyed. *)
let keyed_objects t =
  let n = Array.make (Array.length t.stats) 0 in
  Hashtbl.iter (fun _ (site, _) -> if stat t site <> None then n.(site) <- n.(site) + 1) t.live;
  n
