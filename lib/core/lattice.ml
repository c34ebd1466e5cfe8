(** The lattice index of section 4.1: keys are sets organized in a DAG by
    the subset partial order. Each node stores the ids of its minimal
    supersets ([supers]) and maximal subsets ([subs]); nodes without
    supersets are "tops", nodes without subsets are "roots".

    Searching for all subsets of S starts at the roots and climbs superset
    pointers; searching for supersets starts at the tops and descends. Both
    searches prune whole regions: if a node fails, everything on the far
    side of it fails too. The same traversal supports any monotone
    predicate, which is how the filter tree's output-column and
    grouping-column conditions (section 4.2.3/4.2.4) are evaluated.

    Keys are interned bitsets ({!Mv_util.Bitset}): the subset tests the
    traversal performs at every visited node are word-level AND loops.

    A lattice is an immutable value. The nodes live in an array indexed by
    id and point at each other by id, so a write copies the array of this
    one lattice, rebuilds the few node records whose edges changed and
    shares everything else — payloads included — with the previous
    version. Ids stay dense: a removal moves the last node into the freed
    slot and renumbers the edges that pointed at it. Searches are
    read-only and carry their own visit state (borrowed from a
    domain-local scratch pool), so any number of domains may search one
    lattice concurrently, and a search may re-enter the lattice from
    inside its predicate. *)

module Bitset = Mv_util.Bitset

type 'a node = {
  id : int;
  key : Bitset.t;
  payload : 'a;
  supers : int list;
  subs : int list;
}

type 'a t = {
  nodes : 'a node array;  (** [nodes.(i).id = i] *)
  tops : int list;
  roots : int list;
}

let empty = { nodes = [||]; tops = []; roots = [] }

(* ---- per-search visit state ----

   A per-node [mark] stamp field would be shared mutable state: two
   concurrent searches over one lattice would corrupt each other's dedup,
   and even a single-domain *reentrant* search (a predicate or payload
   callback re-entering the lattice, e.g. rule tracing) would overwrite the
   outer search's marks and could return duplicated nodes.

   Each search instead borrows a scratch buffer — an [int array] of
   per-node stamps indexed by node id, plus the buffer's own stamp counter
   — from a domain-local pool. Borrowed buffers are exclusively owned for
   the duration of the search: a reentrant search pops a *different*
   buffer, and searches running on other domains use their own domain's
   pool, so N domains can probe one shared lattice concurrently. The stamp
   counter makes reuse O(1): no clearing between searches, a buffer would
   need 2^62 searches to overflow. Dense ids bound every buffer by the
   largest live lattice. *)

type scratch = { mutable marks : int array; mutable stamp : int }

let scratch_pool : scratch list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let with_scratch n f =
  let pool = Domain.DLS.get scratch_pool in
  let s =
    match !pool with
    | s :: rest ->
        pool := rest;
        s
    | [] -> { marks = Array.make (max 64 n) 0; stamp = 0 }
  in
  if Array.length s.marks < n then
    s.marks <- Array.make (max n (2 * Array.length s.marks)) 0;
  s.stamp <- s.stamp + 1;
  Fun.protect ~finally:(fun () -> pool := s :: !pool) (fun () -> f s)

let size t = Array.length t.nodes

let nodes t = Array.to_list t.nodes

let node t id = t.nodes.(id)

let tops t = List.map (node t) t.tops

let roots t = List.map (node t) t.roots

let find_exact t key = Array.find_opt (fun n -> Bitset.equal n.key key) t.nodes

(* Generic pruned traversal. [`Down] starts at the tops and follows subset
   pointers: correct when [pred] failing on a key implies it fails on every
   subset (e.g. "key is a superset of S"). [`Up] starts at the roots and
   follows superset pointers: correct when failure propagates to supersets
   (e.g. "key is a subset of S"). Each node is visited at most once. *)
let search t ~dir ~pred =
  with_scratch (size t) (fun s ->
      let marks = s.marks and stamp = s.stamp in
      let acc = ref [] in
      let rec visit id =
        if marks.(id) <> stamp then begin
          marks.(id) <- stamp;
          let n = t.nodes.(id) in
          if pred n.key then begin
            acc := n :: !acc;
            List.iter visit (match dir with `Down -> n.subs | `Up -> n.supers)
          end
        end
      in
      List.iter visit (match dir with `Down -> t.tops | `Up -> t.roots);
      !acc)

let supersets_of t key =
  search t ~dir:`Down ~pred:(fun k -> Bitset.subset key k)

let subsets_of t key = search t ~dir:`Up ~pred:(fun k -> Bitset.subset k key)

(* Ids of the nodes of [ns] that no other node of [ns] [beats]. *)
let unbeaten_ids beats ns =
  List.filter_map
    (fun n ->
      if List.exists (fun m -> m.id <> n.id && beats m.key n.key) ns then None
      else Some n.id)
    ns

let minimal_ids ns = unbeaten_ids Bitset.subset ns

let maximal_ids ns = unbeaten_ids (fun m n -> Bitset.subset n m) ns

let without ids l = List.filter (fun x -> not (List.mem x ids)) l

(* A write works on a private copy [a] of the node array and swaps in
   rebuilt records, leaving the published version's records untouched. *)
let edit_supers a f id = a.(id) <- { (a.(id)) with supers = f a.(id).supers }

let edit_subs a f id = a.(id) <- { (a.(id)) with subs = f a.(id).subs }

(* Bind [key] to [payload]. A new key becomes the last id and is linked
   between its maximal existing subsets and minimal existing supersets;
   the direct edges between those two groups become transitive and go. *)
let add t key payload =
  match find_exact t key with
  | Some n ->
      let a = Array.copy t.nodes in
      a.(n.id) <- { n with payload };
      { t with nodes = a }
  | None ->
      let id = size t in
      let supers = minimal_ids (supersets_of t key) in
      let subs = maximal_ids (subsets_of t key) in
      let a = Array.append t.nodes [| { id; key; payload; supers; subs } |] in
      List.iter (edit_subs a (fun l -> id :: without subs l)) supers;
      List.iter (edit_supers a (fun l -> id :: without supers l)) subs;
      {
        nodes = a;
        tops = (if supers = [] then [ id ] else []) @ without subs t.tops;
        roots = (if subs = [] then [ id ] else []) @ without supers t.roots;
      }

(* Remove [key]: unlink it, connect each of its subsets b to each of its
   supersets s unless some other superset of b already lies below s (a
   node strictly between b and s must then sit above one of b's remaining
   direct supersets), then move the last node into the freed id. *)
let remove t key =
  match find_exact t key with
  | None -> t
  | Some n ->
      let d = n.id in
      let a = Array.copy t.nodes in
      List.iter (edit_supers a (without [ d ])) n.subs;
      List.iter (edit_subs a (without [ d ])) n.supers;
      List.iter
        (fun b ->
          List.iter
            (fun s ->
              let below_s y = Bitset.subset a.(y).key a.(s).key in
              if not (List.exists below_s a.(b).supers) then begin
                edit_supers a (List.cons s) b;
                edit_subs a (List.cons b) s
              end)
            n.supers)
        n.subs;
      let tops =
        List.filter (fun b -> a.(b).supers = []) n.subs @ without [ d ] t.tops
      and roots =
        List.filter (fun s -> a.(s).subs = []) n.supers @ without [ d ] t.roots
      in
      let last = Array.length a - 1 in
      if d = last then { nodes = Array.sub a 0 last; tops; roots }
      else begin
        let moved = a.(last) in
        let renumber = List.map (fun x -> if x = last then d else x) in
        a.(d) <- { moved with id = d };
        List.iter (edit_subs a renumber) moved.supers;
        List.iter (edit_supers a renumber) moved.subs;
        let nodes = Array.sub a 0 last in
        { nodes; tops = renumber tops; roots = renumber roots }
      end
