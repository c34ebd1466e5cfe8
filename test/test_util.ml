(** Utility tests: union-find properties and PRNG sanity. *)

module UF = Mv_util.Union_find.Make (Int)
module Prng = Mv_util.Prng

(* union-find must agree with a naive transitive closure *)
let uf_prop =
  QCheck.Test.make ~name:"union-find: agrees with transitive closure"
    ~count:300
    QCheck.(list_of_size (Gen.int_range 0 30) (pair (int_bound 9) (int_bound 9)))
    (fun pairs ->
      let uf = UF.create () in
      List.iter (fun (a, b) -> UF.union uf a b) pairs;
      (* naive closure over 0..9 *)
      let reach = Array.make_matrix 10 10 false in
      for i = 0 to 9 do
        reach.(i).(i) <- true
      done;
      List.iter
        (fun (a, b) ->
          reach.(a).(b) <- true;
          reach.(b).(a) <- true)
        pairs;
      let changed = ref true in
      while !changed do
        changed := false;
        for i = 0 to 9 do
          for j = 0 to 9 do
            for k = 0 to 9 do
              if reach.(i).(k) && reach.(k).(j) && not reach.(i).(j) then begin
                reach.(i).(j) <- true;
                changed := true
              end
            done
          done
        done
      done;
      let ok = ref true in
      List.iter
        (fun (a, _) ->
          List.iter
            (fun (b, _) ->
              if UF.same uf a b <> reach.(a).(b) then ok := false)
            pairs)
        pairs;
      !ok)

let test_uf_classes () =
  let uf = UF.create () in
  List.iter (UF.add uf) [ 1; 2; 3; 4; 5 ];
  UF.union uf 1 2;
  UF.union uf 2 3;
  let classes = UF.classes uf in
  let sizes = List.sort compare (List.map List.length classes) in
  Alcotest.(check (list int)) "class sizes" [ 1; 1; 3 ] sizes

let test_uf_copy_isolated () =
  let uf = UF.create () in
  UF.union uf 1 2;
  let cp = UF.copy uf in
  UF.union cp 2 3;
  Alcotest.(check bool) "copy merged" true (UF.same cp 1 3);
  Alcotest.(check bool) "original untouched" false (UF.same uf 1 3)

let test_prng_determinism () =
  let a = Prng.create 5 and b = Prng.create 5 in
  let xs = List.init 100 (fun _ -> Prng.int a 1000) in
  let ys = List.init 100 (fun _ -> Prng.int b 1000) in
  Alcotest.(check (list int)) "same stream" xs ys

let prng_bounds_prop =
  QCheck.Test.make ~name:"prng: int stays in bounds" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.create seed in
      List.for_all
        (fun _ ->
          let x = Prng.int rng bound in
          x >= 0 && x < bound)
        (List.init 50 Fun.id))

let test_prng_uniformish () =
  let rng = Prng.create 123 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10000 do
    let x = Prng.int rng 10 in
    buckets.(x) <- buckets.(x) + 1
  done;
  Array.iteri
    (fun i n ->
      if n < 700 || n > 1300 then
        Alcotest.failf "bucket %d has %d of 10000 (expected ~1000)" i n)
    buckets

let test_pick_weighted () =
  let rng = Prng.create 9 in
  let a = ref 0 and b = ref 0 in
  for _ = 1 to 1000 do
    match Prng.pick_weighted rng [ (9.0, `A); (1.0, `B) ] with
    | `A -> incr a
    | `B -> incr b
  done;
  Alcotest.(check bool) "weighting respected" true (!a > !b * 4)

let test_shuffle_permutes () =
  let rng = Prng.create 17 in
  let xs = List.init 20 Fun.id in
  let ys = Prng.shuffle rng xs in
  Alcotest.(check (list int)) "same elements" xs (List.sort compare ys)

let test_sset_helpers () =
  let s = Mv_util.Sset.of_list [ "b"; "a"; "a" ] in
  Alcotest.(check (list string)) "sorted unique" [ "a"; "b" ]
    (Mv_util.Sset.to_list s);
  Alcotest.(check string) "printing" "{a, b}" (Mv_util.Sset.to_string s)

(* ---- bitsets: every operation must agree with a sorted-int-list model.
   Elements span several words (0..200) so normalization across widths —
   the property making equality/hash well-defined — gets exercised. *)

module Bitset = Mv_util.Bitset

let elems_gen = QCheck.Gen.(list_size (int_range 0 25) (int_range 0 200))

let elems_arb =
  QCheck.make
    ~print:(fun xs -> String.concat "," (List.map string_of_int xs))
    elems_gen

let model xs = List.sort_uniq compare xs

let bitset_model_prop =
  QCheck.Test.make ~name:"bitset: ops agree with a sorted-list model"
    ~count:500
    QCheck.(pair elems_arb elems_arb)
    (fun (xs, ys) ->
      let a = Bitset.of_list xs and b = Bitset.of_list ys in
      let ma = model xs and mb = model ys in
      Bitset.elements a = ma
      && Bitset.elements b = mb
      && Bitset.cardinal a = List.length ma
      && Bitset.elements (Bitset.union a b) = model (xs @ ys)
      && Bitset.elements (Bitset.inter a b)
         = List.filter (fun x -> List.mem x mb) ma
      && Bitset.subset a b = List.for_all (fun x -> List.mem x mb) ma
      && Bitset.inter_empty a b
         = not (List.exists (fun x -> List.mem x mb) ma)
      && Bitset.equal a b = (ma = mb)
      && List.for_all (fun x -> Bitset.mem a x) ma
      && not (Bitset.mem a 201))

let bitset_norm_prop =
  QCheck.Test.make
    ~name:"bitset: equal sets have equal hashes across widths" ~count:500
    elems_arb
    (fun xs ->
      let a = Bitset.of_list xs in
      (* build the same set along a different path, through a larger
         intermediate set that forces wider internal arrays *)
      let b =
        List.fold_left
          (fun acc x -> Bitset.remove acc x)
          (Bitset.of_list (250 :: xs))
          [ 250 ]
      in
      Bitset.equal a b && Bitset.hash a = Bitset.hash b
      && Bitset.compare a b = 0)

let test_bitset_basics () =
  Alcotest.(check bool) "empty is empty" true (Bitset.is_empty Bitset.empty);
  let s = Bitset.of_list [ 3; 70; 3 ] in
  Alcotest.(check (list int)) "elements" [ 3; 70 ] (Bitset.elements s);
  Alcotest.(check bool) "singleton mem" true (Bitset.mem (Bitset.singleton 5) 5);
  Alcotest.(check bool) "remove to empty" true
    (Bitset.is_empty (Bitset.remove (Bitset.singleton 70) 70));
  Alcotest.(check int) "fold sum" 73 (Bitset.fold (fun x acc -> x + acc) s 0)

(* ---- symbol interner: ids are dense, stable, and round-trip *)

let test_symbol_interner () =
  let d = Mv_util.Symbol.create "test-domain" in
  let a = Mv_util.Symbol.intern d "alpha" in
  let b = Mv_util.Symbol.intern d "beta" in
  Alcotest.(check int) "dense ids" 1 b;
  Alcotest.(check int) "stable re-intern" a (Mv_util.Symbol.intern d "alpha");
  Alcotest.(check string) "round-trip" "beta" (Mv_util.Symbol.name d b);
  Alcotest.(check (option int)) "find hit" (Some a)
    (Mv_util.Symbol.find d "alpha");
  Alcotest.(check (option int)) "find miss" None
    (Mv_util.Symbol.find d "gamma");
  Alcotest.(check int) "size" 2 (Mv_util.Symbol.size d);
  Alcotest.check_raises "bad id"
    (Invalid_argument
       "Symbol.name: id 99 out of range for domain test-domain (size 2)")
    (fun () -> ignore (Mv_util.Symbol.name d 99))

(* a freeze that finds nothing new keeps the published snapshot: the write
   path freezes after every add without copying the vocabulary *)
let test_symbol_freeze_noop () =
  let module S = Mv_util.Symbol in
  let d = S.create "freeze-domain" in
  ignore (S.intern d "alpha");
  S.freeze d;
  let first = S.frozen d in
  S.freeze d;
  Alcotest.(check bool) "same frozen record" true (first == S.frozen d);
  ignore (S.intern d "alpha");
  S.freeze d;
  Alcotest.(check bool) "re-interning adds nothing" true (first == S.frozen d);
  ignore (S.intern d "beta");
  S.freeze d;
  Alcotest.(check bool) "a new symbol republishes" false (first == S.frozen d);
  Alcotest.(check int) "frozen size" 2 (S.frozen_size d)

let symbol_dense_prop =
  QCheck.Test.make ~name:"symbol: interning is a dense bijection" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 40) (string_gen_of_size (Gen.int_range 0 6) Gen.printable))
    (fun strs ->
      let d = Mv_util.Symbol.create "prop-domain" in
      let ids = List.map (Mv_util.Symbol.intern d) strs in
      let distinct = List.sort_uniq compare strs in
      Mv_util.Symbol.size d = List.length distinct
      && List.for_all2
           (fun s i -> Mv_util.Symbol.name d i = s)
           strs ids
      && List.for_all (fun i -> i >= 0 && i < Mv_util.Symbol.size d) ids)

(* ---- bounded LRU ---- *)

module Lru = Mv_util.Lru

(* bindings most-recently-used first, like the fold order *)
let lru_entries l = List.rev (Lru.fold (fun k v acc -> (k, v) :: acc) l [])

let test_lru_basics () =
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Lru.create: capacity < 1") (fun () ->
      ignore (Lru.create ~capacity:0));
  let l = Lru.create ~capacity:3 in
  Alcotest.(check int) "capacity" 3 (Lru.capacity l);
  Alcotest.(check (option int)) "empty find" None (Lru.find l "a");
  Alcotest.(check bool) "insert under capacity evicts nothing" true
    (Lru.set l "a" 1 = None && Lru.set l "b" 2 = None && Lru.set l "c" 3 = None);
  Alcotest.(check int) "length" 3 (Lru.length l);
  Alcotest.(check (option (pair string int))) "overflow evicts the LRU"
    (Some ("a", 1))
    (Lru.set l "d" 4);
  Alcotest.(check int) "length stays at capacity" 3 (Lru.length l);
  Alcotest.(check bool) "evicted key gone" false (Lru.mem l "a");
  Alcotest.(check (option int)) "survivor intact" (Some 2) (Lru.find l "b")

let test_lru_recency () =
  let l = Lru.create ~capacity:3 in
  List.iter (fun (k, v) -> ignore (Lru.set l k v)) [ ("a", 1); ("b", 2); ("c", 3) ];
  (* a find promotes: "a" is now the most recent, so "b" is the victim *)
  ignore (Lru.find l "a");
  Alcotest.(check (option (pair string int))) "find protects from eviction"
    (Some ("b", 2))
    (Lru.set l "d" 4);
  (* a peek must NOT promote: "c" (older than "a") is the next victim *)
  ignore (Lru.peek l "a");
  Alcotest.(check (option (pair string int))) "peek does not promote"
    (Some ("c", 3))
    (Lru.set l "e" 5)

let test_lru_replace_remove () =
  let l = Lru.create ~capacity:2 in
  ignore (Lru.set l "a" 1);
  ignore (Lru.set l "b" 2);
  Alcotest.(check (option (pair string int))) "replace evicts nothing" None
    (Lru.set l "a" 10);
  Alcotest.(check (option int)) "replace updates" (Some 10) (Lru.find l "a");
  Alcotest.(check bool) "remove present" true (Lru.remove l "b");
  Alcotest.(check bool) "remove absent" false (Lru.remove l "b");
  Alcotest.(check int) "one left" 1 (Lru.length l);
  Lru.clear l;
  Alcotest.(check int) "cleared" 0 (Lru.length l);
  Alcotest.(check (option int)) "cleared find" None (Lru.find l "a")

(* Model check: a capacity-c LRU behaves like a list of bindings kept in
   recency order, truncated to c. Ops shrink to minimal failing traces. *)
let lru_model_prop =
  QCheck.Test.make ~name:"lru: agrees with a recency-list model"
    ~count:(Helpers.qcheck_count 300)
    QCheck.(
      pair (int_range 1 5)
        (list_of_size (Gen.int_range 0 40)
           (pair (int_bound 2) (pair (int_bound 7) small_nat))))
    (fun (cap, ops) ->
      let l = Lru.create ~capacity:cap in
      let model = ref [] in
      List.iter
        (fun (kind, (k, v)) ->
          match kind with
          | 0 ->
              ignore (Lru.set l k v);
              let without = List.remove_assoc k !model in
              model := (k, v) :: List.filteri (fun i _ -> i < cap - 1) without
          | 1 -> (
              match (Lru.find l k, List.assoc_opt k !model) with
              | None, None -> ()
              | Some v', Some vm when v' = vm ->
                  model := (k, vm) :: List.remove_assoc k !model
              | got, want ->
                  QCheck.Test.fail_reportf "find %d: lru=%s model=%s" k
                    (match got with None -> "None" | Some v -> string_of_int v)
                    (match want with None -> "None" | Some v -> string_of_int v))
          | _ ->
              let was = Lru.remove l k in
              if was <> List.mem_assoc k !model then
                QCheck.Test.fail_reportf "remove %d disagrees" k;
              model := List.remove_assoc k !model)
        ops;
      lru_entries l = !model && Lru.length l = List.length !model)

let suite =
  [
    ( "util",
      [
        Helpers.qtest uf_prop;
        Alcotest.test_case "union-find classes" `Quick test_uf_classes;
        Alcotest.test_case "union-find copy isolation" `Quick test_uf_copy_isolated;
        Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
        Helpers.qtest prng_bounds_prop;
        Alcotest.test_case "prng roughly uniform" `Quick test_prng_uniformish;
        Alcotest.test_case "weighted pick" `Quick test_pick_weighted;
        Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
        Alcotest.test_case "string set helpers" `Quick test_sset_helpers;
        Helpers.qtest bitset_model_prop;
        Helpers.qtest bitset_norm_prop;
        Alcotest.test_case "bitset basics" `Quick test_bitset_basics;
        Alcotest.test_case "symbol interner" `Quick test_symbol_interner;
        Helpers.qtest symbol_dense_prop;
        Alcotest.test_case "symbol freeze without news copies nothing" `Quick
          test_symbol_freeze_noop;
        Alcotest.test_case "lru basics and eviction" `Quick test_lru_basics;
        Alcotest.test_case "lru recency: find promotes, peek does not" `Quick
          test_lru_recency;
        Alcotest.test_case "lru replace, remove, clear" `Quick
          test_lru_replace_remove;
        Helpers.qtest lru_model_prop;
      ] );
  ]
