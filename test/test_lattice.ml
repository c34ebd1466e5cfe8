(** Property tests for the lattice index of section 4.1, over interned
    bitset keys: searches must agree with brute force over random families
    of sets, through arbitrary interleavings of insertions and deletions;
    every write leaves the version it started from unchanged; node ids stay
    dense however long the churn. *)

module Bitset = Mv_util.Bitset
module Lattice = Mv_core.Lattice

(* sets over a universe of 6 elements, encoded in 6 bits — the encoding is
   exactly a one-word bitset, so [of_int] builds the key directly *)
let set_of_int n =
  let rec go i acc =
    if i >= 6 then acc
    else go (i + 1) (if n land (1 lsl i) <> 0 then Bitset.add acc i else acc)
  in
  go 0 Bitset.empty

let ops_gen =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (pair (frequency [ (4, return `Insert); (1, return `Delete) ])
         (int_range 0 63)))

let ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (fun (op, n) ->
             (match op with `Insert -> "+" | `Delete -> "-")
             ^ string_of_int n)
           ops))
    ops_gen

(* apply one op to both the lattice and a reference list *)
let step (t, reference) (op, n) =
  let key = set_of_int n in
  match op with
  | `Insert ->
      ( Lattice.add t key n,
        if List.exists (Bitset.equal key) reference then reference
        else key :: reference )
  | `Delete ->
      ( Lattice.remove t key,
        List.filter (fun k -> not (Bitset.equal k key)) reference )

let build ops = List.fold_left step (Lattice.empty, []) ops

let keys_of nodes =
  List.sort compare (List.map (fun n -> Bitset.elements n.Lattice.key) nodes)

let subsets_prop =
  QCheck.Test.make ~name:"lattice: subsets_of agrees with brute force"
    ~count:300
    QCheck.(pair ops_arb (int_range 0 63))
    (fun (ops, probe) ->
      let t, reference = build ops in
      let key = set_of_int probe in
      let expected =
        List.filter (fun k -> Bitset.subset k key) reference
        |> List.map Bitset.elements |> List.sort compare
      in
      keys_of (Lattice.subsets_of t key) = expected)

let supersets_prop =
  QCheck.Test.make ~name:"lattice: supersets_of agrees with brute force"
    ~count:300
    QCheck.(pair ops_arb (int_range 0 63))
    (fun (ops, probe) ->
      let t, reference = build ops in
      let key = set_of_int probe in
      let expected =
        List.filter (fun k -> Bitset.subset key k) reference
        |> List.map Bitset.elements |> List.sort compare
      in
      keys_of (Lattice.supersets_of t key) = expected)

(* structural invariants: supers are minimal strict supersets, subs maximal
   strict subsets, tops have no supers, roots no subs *)
let invariants_prop =
  QCheck.Test.make ~name:"lattice: structural invariants" ~count:300 ops_arb
    (fun ops ->
      let t, reference = build ops in
      let nodes = Lattice.nodes t in
      let supers n = List.map (Lattice.node t) n.Lattice.supers
      and subs n = List.map (Lattice.node t) n.Lattice.subs in
      List.length nodes = List.length reference
      && List.for_all
           (fun n ->
             let k = n.Lattice.key in
             (* supers: strict supersets with nothing in between *)
             List.for_all
               (fun s ->
                 Bitset.subset k s.Lattice.key
                 && (not (Bitset.equal k s.Lattice.key))
                 && not
                      (List.exists
                         (fun mid ->
                           (not (Bitset.equal mid k))
                           && (not (Bitset.equal mid s.Lattice.key))
                           && Bitset.subset k mid
                           && Bitset.subset mid s.Lattice.key)
                         reference))
               (supers n)
             && List.for_all
                  (fun b ->
                    Bitset.subset b.Lattice.key k
                    && not (Bitset.equal b.Lattice.key k))
                  (subs n))
           nodes
      && List.for_all (fun n -> n.Lattice.supers = []) (Lattice.tops t)
      && List.for_all (fun n -> n.Lattice.subs = []) (Lattice.roots t))

(* monotone predicate search: the generic traversal must equal brute force
   for an intersection-nonempty condition (the output-column condition of
   section 4.2.3) *)
let custom_search_prop =
  QCheck.Test.make ~name:"lattice: monotone predicate search" ~count:300
    QCheck.(pair ops_arb (pair (int_range 0 63) (int_range 0 63)))
    (fun (ops, (c1, c2)) ->
      let t, reference = build ops in
      let classes =
        List.filter
          (fun s -> not (Bitset.is_empty s))
          [ set_of_int c1; set_of_int c2 ]
      in
      let pred k =
        List.for_all (fun cls -> not (Bitset.inter_empty k cls)) classes
      in
      let got = keys_of (Lattice.search t ~dir:`Down ~pred) in
      let expected =
        List.filter pred reference
        |> List.map Bitset.elements |> List.sort compare
      in
      got = expected)

(* a write never changes the version it started from: after a whole chain
   of writes, every intermediate version still answers searches exactly as
   its own op prefix says *)
let persistence_prop =
  QCheck.Test.make ~name:"lattice: writes leave earlier versions intact"
    ~count:300
    QCheck.(pair ops_arb (int_range 0 63))
    (fun (ops, probe) ->
      let key = set_of_int probe in
      let versions =
        List.fold_left
          (fun acc op -> step (List.hd acc) op :: acc)
          [ (Lattice.empty, []) ]
          ops
      in
      List.for_all
        (fun (t, reference) ->
          keys_of (Lattice.subsets_of t key)
          = (List.filter (fun k -> Bitset.subset k key) reference
            |> List.map Bitset.elements |> List.sort compare))
        versions)

(* ids are exactly 0 .. size - 1 after every write, so the per-search
   scratch (sized by the id range) never outgrows the peak live size *)
let test_ids_dense_under_churn () =
  let rng = Random.State.make [| 13 |] in
  let t = ref Lattice.empty and peak = ref 0 in
  for _ = 1 to 10_000 do
    let op = if Random.State.int rng 3 = 0 then `Delete else `Insert in
    t := fst (step (!t, []) (op, Random.State.int rng 64));
    peak := max !peak (Lattice.size !t);
    List.iter
      (fun n ->
        if n.Lattice.id < 0 || n.Lattice.id >= Lattice.size !t then
          Alcotest.failf "id %d outside 0..%d" n.Lattice.id
            (Lattice.size !t - 1))
      (Lattice.nodes !t)
  done;
  Alcotest.(check bool) "id range within peak live size" true
    (Lattice.size !t <= !peak);
  Alcotest.(check (list int)) "ids are 0 .. size-1"
    (List.init (Lattice.size !t) Fun.id)
    (List.sort compare (List.map (fun n -> n.Lattice.id) (Lattice.nodes !t)))

let test_insert_idempotent () =
  let k = set_of_int 5 in
  let t1 = Lattice.add Lattice.empty k "a" in
  let t2 = Lattice.add t1 k "b" in
  Alcotest.(check int) "size 1" 1 (Lattice.size t2);
  Alcotest.(check int) "same id" (Option.get (Lattice.find_exact t1 k)).id
    (Option.get (Lattice.find_exact t2 k)).id;
  Alcotest.(check string) "payload replaced" "b"
    (Option.get (Lattice.find_exact t2 k)).payload;
  Alcotest.(check string) "old version keeps its payload" "a"
    (Option.get (Lattice.find_exact t1 k)).payload

let test_reentrant_search () =
  (* a predicate that re-enters the lattice with a full search of its own
     must not corrupt the outer search's dedup. Diamond {0},{1},{0,1}: with
     the old shared stamp/mark scheme the inner search re-stamped every
     node, so the outer traversal saw the join node {0,1} as unvisited from
     its second root and emitted it twice (or, reading the live stamp,
     skipped nodes entirely). Per-search scratch state keeps the two
     traversals independent. *)
  let t =
    List.fold_left
      (fun t n -> Lattice.add t (set_of_int n) ())
      Lattice.empty [ 1; 2; 3 ]
  in
  let pred _k =
    ignore (Lattice.search t ~dir:`Down ~pred:(fun _ -> true));
    true
  in
  let got = keys_of (Lattice.search t ~dir:`Up ~pred) in
  Alcotest.(check (list (list int)))
    "each node exactly once"
    [ [ 0 ]; [ 0; 1 ]; [ 1 ] ]
    got

let test_paper_figure1 () =
  (* the eight key sets of Figure 1: A, B, D, AB, BE, ABC, ABF, BCDE —
     letters interned as bits A=0, B=1, ... *)
  let mk s =
    Bitset.of_list
      (List.init (String.length s) (fun i -> Char.code s.[i] - Char.code 'A'))
  in
  let t =
    List.fold_left
      (fun t s -> Lattice.add t (mk s) ())
      Lattice.empty
      [ "A"; "B"; "D"; "AB"; "BE"; "ABC"; "ABF"; "BCDE" ]
  in
  (* search supersets of AB: AB, ABC, ABF (the paper's worked example) *)
  let got = keys_of (Lattice.supersets_of t (mk "AB")) in
  Alcotest.(check (list (list int)))
    "supersets of AB"
    [ [ 0; 1 ]; [ 0; 1; 2 ]; [ 0; 1; 5 ] ]
    got;
  (* tops and roots per Figure 1 *)
  Alcotest.(check int) "3 tops" 3 (List.length (Lattice.tops t));
  Alcotest.(check int) "3 roots" 3 (List.length (Lattice.roots t))

let suite =
  [
    ( "lattice",
      [
        Alcotest.test_case "insert idempotent" `Quick test_insert_idempotent;
        Alcotest.test_case "paper figure 1" `Quick test_paper_figure1;
        Alcotest.test_case "reentrant search keeps dedup" `Quick
          test_reentrant_search;
        Helpers.qtest subsets_prop;
        Helpers.qtest supersets_prop;
        Helpers.qtest invariants_prop;
        Helpers.qtest custom_search_prop;
        Helpers.qtest persistence_prop;
        Alcotest.test_case "ids dense under 10k churn cycles" `Quick
          test_ids_dense_under_churn;
      ] );
  ]
