(** Dynamic-registry tests: the epoch protocol and the model-based sweep.

    The model: a registry changed by interleaved add/drop ops must be
    indistinguishable — identical candidate sets and substitutes — from a
    registry rebuilt from scratch over the currently-live views after
    every step. A pinned snapshot must stay exactly what it was while the
    registry moves on. qcheck generates the op sequences and shrinks
    failures to a minimal interleaving.

    The suite is named with a [prop_] prefix so the @runtest-quick alias
    picks it up (MVIEW_QCHECK_COUNT shrinks the case count). *)

module H = Mv_experiments.Harness
module R = Mv_core.Registry
module FT = Mv_core.Filter_tree
module A = Mv_relalg.Analysis

(* A small shared pool of views and queries; ops index into it. *)
let nviews = 30

let nqueries = 8

let wl = lazy (H.make_workload ~nviews ~nqueries ())

let view_name (v : Mv_core.View.t) = v.Mv_core.View.name

let nth_view i = List.nth (Lazy.force wl).H.views (i mod nviews)

let nth_query j = List.nth (Lazy.force wl).H.queries (j mod nqueries)

let analyses =
  lazy
    (let w = Lazy.force wl in
     List.map (A.analyze w.H.schema) w.H.queries)

(* Candidate sets as sorted name lists: this model compares sets; the
   order itself is checked by the pinned-snapshot property and the
   history-free order unit below. *)
let candidate_names reg qa =
  List.sort compare (List.map view_name (R.candidates reg qa))

let substitute_sqls reg qa =
  List.sort compare
    (List.map Mv_core.Substitute.to_sql (R.find_substitutes reg qa))

let scratch_of views =
  let w = Lazy.force wl in
  let reg = R.create w.H.schema in
  List.iter (R.add_prebuilt reg) views;
  reg

(* ---------------------------------------------------------------- *)
(* The model-based property                                         *)
(* ---------------------------------------------------------------- *)

type op = Add of int | Drop of int | Query of int

let op_of_pair (k, i) =
  match k mod 3 with 0 -> Add i | 1 -> Drop i | _ -> Query i

let show_op = function
  | Add i -> Printf.sprintf "Add %d" (i mod nviews)
  | Drop i -> Printf.sprintf "Drop %d" (i mod nviews)
  | Query j -> Printf.sprintf "Query %d" (j mod nqueries)

(* Apply one op to both the dynamic registry and the model (the list of
   live views, in registration order); on [Query], the dynamic registry
   must agree with a scratch rebuild of the model. *)
let check_sequence pairs =
  let ops = List.map op_of_pair pairs in
  let w = Lazy.force wl in
  let reg = R.create w.H.schema in
  let live = ref [] in
  let fail op fmt =
    Printf.ksprintf
      (fun msg ->
        QCheck.Test.fail_reportf "after %s (live=%d): %s" (show_op op)
          (List.length !live) msg)
      fmt
  in
  let step op =
    (match op with
    | Add i ->
        let v = nth_view i in
        if not (List.exists (fun u -> view_name u = view_name v) !live) then (
          R.add_prebuilt reg v;
          live := !live @ [ v ])
    | Drop i ->
        let name = view_name (nth_view i) in
        R.remove_view reg name;
        live := List.filter (fun u -> view_name u <> name) !live
    | Query _ -> ());
    if R.view_count reg <> List.length !live then
      fail op "view_count %d <> model %d" (R.view_count reg)
        (List.length !live);
    match op with
    | Query j ->
        let qa = List.nth (Lazy.force analyses) (j mod nqueries) in
        let fresh = scratch_of !live in
        let dyn_c = candidate_names reg qa
        and ref_c = candidate_names fresh qa in
        if dyn_c <> ref_c then
          fail op "candidates {%s} <> scratch {%s}"
            (String.concat "," dyn_c) (String.concat "," ref_c);
        if substitute_sqls reg qa <> substitute_sqls fresh qa then
          fail op "substitutes differ from scratch rebuild"
    | Add _ | Drop _ -> ()
  in
  List.iter step ops;
  (* final sweep: every query agrees with a full rebuild *)
  let fresh = scratch_of !live in
  List.iteri
    (fun j qa ->
      if candidate_names reg qa <> candidate_names fresh qa then
        QCheck.Test.fail_reportf
          "final state: query %d candidates differ from scratch rebuild" j)
    (Lazy.force analyses);
  true

let model_prop =
  QCheck.Test.make
    ~name:"dynamic registry: add/drop interleavings match scratch rebuilds"
    ~count:(Helpers.qcheck_count 30)
    QCheck.(list_of_size (Gen.int_range 0 25) (pair small_nat small_nat))
    check_sequence

(* ---------------------------------------------------------------- *)
(* Epoch protocol units                                             *)
(* ---------------------------------------------------------------- *)

let test_epoch_protocol () =
  let w = Lazy.force wl in
  let reg = R.create w.H.schema in
  Alcotest.(check int) "empty registry is epoch 0" 0 (R.epoch reg);
  let v = List.hd w.H.views in
  R.add_prebuilt reg v;
  Alcotest.(check int) "add bumps the epoch" 1 (R.epoch reg);
  R.remove_view reg "no_such_view";
  Alcotest.(check int) "unknown drop is a no-op" 1 (R.epoch reg);
  R.remove_view reg (view_name v);
  Alcotest.(check int) "drop bumps the epoch" 2 (R.epoch reg);
  R.remove_view reg (view_name v);
  Alcotest.(check int) "re-drop is a no-op" 2 (R.epoch reg);
  R.add_prebuilt reg v;
  Alcotest.(check int) "re-add bumps again" 3 (R.epoch reg)

let test_duplicate_add_raises () =
  let w = Lazy.force wl in
  let reg = R.create w.H.schema in
  let v = List.hd w.H.views in
  R.add_prebuilt reg v;
  let epoch_before = R.epoch reg in
  Alcotest.check_raises "duplicate add"
    (R.Duplicate_view (view_name v))
    (fun () -> R.add_prebuilt reg v);
  Alcotest.(check int) "failed add leaves the epoch alone" epoch_before
    (R.epoch reg)

(* ---------------------------------------------------------------- *)
(* Pinned snapshots under churn                                     *)
(* ---------------------------------------------------------------- *)

let candidate_list ?snap reg qa =
  List.map view_name (R.candidates ?snap reg qa)

(* Pin a snapshot, run a random add/drop sequence, then ask the pinned
   snapshot again: every query's candidate list — order included — must be
   what it was at pinning time and what a registry built from scratch over
   the snapshot's own population returns. *)
let check_pinned (initial, pairs) =
  let initial = List.sort_uniq compare (List.map (fun i -> i mod nviews) initial) in
  let reg = scratch_of (List.map nth_view initial) in
  let snap = R.snapshot reg in
  let qas = Lazy.force analyses in
  let before = List.map (candidate_list ~snap reg) qas in
  List.iter
    (fun (k, i) ->
      let v = nth_view i in
      if k mod 2 = 0 then (
        if R.find_view reg (view_name v) = None then R.add_prebuilt reg v)
      else R.remove_view reg (view_name v))
    pairs;
  let fresh = scratch_of (R.views ~snap reg) in
  List.iteri
    (fun j qa ->
      let pinned = candidate_list ~snap reg qa in
      if pinned <> List.nth before j then
        QCheck.Test.fail_reportf "query %d: pinned candidates changed" j;
      if pinned <> candidate_list fresh qa then
        QCheck.Test.fail_reportf
          "query %d: pinned {%s} <> scratch {%s}" j
          (String.concat "," pinned)
          (String.concat "," (candidate_list fresh qa)))
    qas;
  true

let pinned_prop =
  QCheck.Test.make
    ~name:"dynamic registry: pinned snapshot unchanged by later add/drop"
    ~count:(Helpers.qcheck_count 30)
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 nviews) small_nat)
        (list_of_size (Gen.int_range 0 25) (pair small_nat small_nat)))
    check_pinned

(* Candidate order is a function of the population: a registry that went
   through drops and re-adds lists candidates exactly like a scratch
   registry over the same views. *)
let test_candidate_order_history_free () =
  let w = Lazy.force wl in
  let views = H.take nviews w.H.views in
  let reg = scratch_of views in
  List.iter
    (fun v ->
      R.remove_view reg (view_name v);
      R.add_prebuilt reg v)
    (List.rev views);
  let fresh = scratch_of views in
  List.iter
    (fun qa ->
      Alcotest.(check (list string)) "same candidates, same order"
        (candidate_list fresh qa) (candidate_list reg qa))
    (Lazy.force analyses)

let tree_nodes reg = FT.stats (R.snapshot reg).R.snap_tree

(* Removing every view must return the filter tree to its empty-tree node
   count: emptied lattice keys are removed, so churn never accumulates
   dead index nodes. *)
let test_tree_prunes_to_baseline () =
  let w = Lazy.force wl in
  let reg = R.create w.H.schema in
  let views = H.take 20 w.H.views in
  let baseline = tree_nodes reg in
  List.iter (R.add_prebuilt reg) views;
  Alcotest.(check bool) "indexing grew the tree" true
    (tree_nodes reg > baseline);
  List.iter (fun v -> R.remove_view reg (view_name v)) views;
  Alcotest.(check int) "all views gone" 0 (R.view_count reg);
  Alcotest.(check int) "lattice nodes pruned back to baseline" baseline
    (tree_nodes reg);
  (* and the emptied tree yields no candidates *)
  List.iter
    (fun qa ->
      Alcotest.(check int) "no candidates from an emptied registry" 0
        (List.length (R.candidates reg qa)))
    (Lazy.force analyses)

(* 10k drop+add cycles leave the index exactly as large as a scratch
   build over the same population. *)
let test_churn_keeps_tree_size () =
  let w = Lazy.force wl in
  let views = H.take nviews w.H.views in
  let reg = scratch_of views in
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 10_000 do
    let v = List.nth views (Random.State.int rng nviews) in
    R.remove_view reg (view_name v);
    R.add_prebuilt reg v
  done;
  Alcotest.(check int) "node count equals a scratch build"
    (tree_nodes (scratch_of views))
    (tree_nodes reg)

let suite =
  [
    ( "prop_dynamic",
      [
        Helpers.qtest model_prop;
        Alcotest.test_case "epoch protocol" `Quick test_epoch_protocol;
        Alcotest.test_case "duplicate add raises, no epoch bump" `Quick
          test_duplicate_add_raises;
        Alcotest.test_case "drop prunes lattice nodes to baseline" `Quick
          test_tree_prunes_to_baseline;
        Helpers.qtest pinned_prop;
        Alcotest.test_case "candidate order ignores add/drop history" `Quick
          test_candidate_order_history_free;
        Alcotest.test_case "10k drop+add cycles keep the tree size" `Quick
          test_churn_keeps_tree_size;
      ] );
  ]
