(** Ablation benches for the design choices DESIGN.md calls out:

    - lattice-index search vs a linear scan over node keys (section 4.1's
      motivation for the lattice structure);
    - hub refinement on/off: how much the predicate-pinning refinement of
      section 4.2.2 sharpens the hub level;
    - filter-tree pruning power per query (candidates vs population). *)

module H = Mv_experiments.Harness

let pr = Printf.printf

(* Linear "filter": test every view's source-table condition directly. *)
let linear_candidates (views : Mv_core.View.t list) q =
  let qi = Mv_core.Filter_tree.query_info q in
  List.filter
    (fun v ->
      Mv_util.Bitset.subset qi.Mv_core.Filter_tree.source_tables
        v.Mv_core.View.keys.Mv_core.View.source_tables)
    views

let run (w : H.workload) _nviews_list =
  pr "\n== Ablation: lattice filter tree vs linear scan ==\n";
  let registry = Mv_core.Registry.create ~use_filter:true w.H.schema in
  List.iter (Mv_core.Registry.add_prebuilt registry) w.H.views;
  let queries =
    List.map (Mv_relalg.Analysis.analyze w.H.schema) w.H.queries
  in
  let time f =
    let t0 = Sys.time () in
    let acc = ref 0 in
    List.iter (fun q -> acc := !acc + List.length (f q)) queries;
    (Sys.time () -. t0, !acc)
  in
  let t_tree, c_tree =
    let tree = (Mv_core.Registry.snapshot registry).Mv_core.Registry.snap_tree in
    time (fun q -> Mv_core.Filter_tree.candidates tree q)
  in
  let t_lin, c_lin = time (linear_candidates w.H.views) in
  let nq = List.length queries in
  pr "filter tree : %8.4fs, %7.2f candidates/query\n" t_tree
    (float_of_int c_tree /. float_of_int (max 1 nq));
  pr "linear scan : %8.4fs, %7.2f candidates/query (table condition only)\n"
    t_lin
    (float_of_int c_lin /. float_of_int (max 1 nq));
  pr "\n== Ablation: hub refinement (section 4.2.2) ==\n";
  let refined_sizes =
    List.map (fun v -> Mv_util.Sset.cardinal v.Mv_core.View.hub) w.H.views
  in
  let unrefined_sizes =
    List.map
      (fun v ->
        (* recompute the hub without predicate pinning: eliminate along all
           strict FK edges *)
        let a = v.Mv_core.View.analysis in
        let tables =
          Mv_util.Sset.of_list a.Mv_relalg.Analysis.spjg.Mv_relalg.Spjg.tables
        in
        let eliminated, _, _ =
          Mv_core.Fk_graph.eliminate ~eliminable:tables
            (Mv_core.Fk_graph.edges a)
        in
        Mv_util.Sset.cardinal
          (Mv_util.Sset.diff tables (Mv_util.Sset.of_list eliminated)))
      w.H.views
  in
  let avg xs =
    float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs)
  in
  pr "average hub size with refinement    : %.2f tables\n" (avg refined_sizes);
  pr "average hub size without refinement : %.2f tables\n" (avg unrefined_sizes);
  pr "(larger refined hubs prune more views at the hub level)\n";
  pr "\n== Ablation: section 7 extensions (backjoins, unions) ==\n";
  (* how many additional queries gain a whole-query rewrite when the
     extensions are enabled *)
  let count_covered reg =
    List.length
      (List.filter
         (fun q -> Mv_core.Registry.find_substitutes reg q <> [])
         queries)
  in
  let plain = count_covered registry in
  let bj = Mv_core.Registry.create ~backjoins:true w.H.schema in
  List.iter
    (fun v ->
      Mv_core.Registry.add_prebuilt bj
        (Mv_core.View.create ~row_count:v.Mv_core.View.row_count w.H.schema
           ~name:v.Mv_core.View.name
           (Mv_core.View.spjg v)))
    w.H.views;
  let with_bj = count_covered bj in
  let unions =
    List.length
      (List.filter
         (fun q ->
           Mv_core.Registry.find_substitutes registry q = []
           && Mv_core.Registry.find_union_substitutes registry q <> None)
         queries)
  in
  pr "queries with a whole-query substitute        : %4d/%d\n" plain nq;
  pr "... with base-table backjoins enabled        : %4d/%d\n" with_bj nq;
  pr "... UNION-of-views rescues (no single view)  : %4d/%d\n" unions nq
