(** The filter tree of section 4: a stack of lattice indexes, one per
    partitioning condition, that narrows the view population to a small
    candidate set before the expensive per-view tests run.

    Level order follows the paper's implementation: hubs, source tables,
    output expressions, output columns, residual constraints, range
    constraints; aggregation views then get two more levels (grouping
    expressions, grouping columns) while SPJ views terminate in their own
    bucket — an SPJ view can answer an aggregation query, but an
    aggregation view can never answer an SPJ query. *)

module Bitset = Mv_util.Bitset
module A = Mv_relalg.Analysis

type level =
  | Hubs
  | Source_tables
  | Output_exprs
  | Output_cols
  | Residuals
  | Range_cols
  | Grouping_exprs
  | Grouping_cols

let level_name = function
  | Hubs -> "hubs"
  | Source_tables -> "source-tables"
  | Output_exprs -> "output-expressions"
  | Output_cols -> "output-columns"
  | Residuals -> "residual-predicates"
  | Range_cols -> "range-constrained-columns"
  | Grouping_exprs -> "grouping-expressions"
  | Grouping_cols -> "grouping-columns"

type plan = P_level of level * plan | P_split of plan * plan | P_bucket

(* Levels of a plan in navigation order (split branches concatenated). *)
let rec plan_levels = function
  | P_bucket -> []
  | P_level (l, rest) -> l :: plan_levels rest
  | P_split (a, b) -> plan_levels a @ plan_levels b

let default_plan =
  let agg = List.fold_right (fun l p -> P_level (l, p))
      [ Grouping_exprs; Grouping_cols ] P_bucket
  in
  List.fold_right (fun l p -> P_level (l, p))
    [ Hubs; Source_tables; Output_exprs; Output_cols; Residuals; Range_cols ]
    (P_split (P_bucket, agg))

(* With base-table backjoins enabled, a view missing output columns can
   still serve a query, so the two output conditions are no longer
   necessary conditions and their levels must be dropped (weaker filtering,
   still sound). *)
let backjoin_plan =
  let agg = List.fold_right (fun l p -> P_level (l, p))
      [ Grouping_exprs; Grouping_cols ] P_bucket
  in
  List.fold_right (fun l p -> P_level (l, p))
    [ Hubs; Source_tables; Residuals; Range_cols ]
    (P_split (P_bucket, agg))

type node =
  | Bucket of View.t list
  | Agg_split of { spj : node; agg : node }
  | Level of {
      level : level;
      rest : plan;
      lattice : node Lattice.t;
      nviews : int;
          (** views in this subtree — lets a search report how many
              candidates each level received and passed on without ever
              enumerating them *)
    }

let rec empty_node = function
  | P_bucket -> Bucket []
  | P_split (ps, pa) -> Agg_split { spj = empty_node ps; agg = empty_node pa }
  | P_level (level, rest) ->
      Level { level; rest; lattice = Lattice.empty; nviews = 0 }

(* Views under a node: O(1) at levels, O(bucket size) at the leaves. *)
let rec views_under = function
  | Bucket views -> List.length views
  | Agg_split s -> views_under s.spj + views_under s.agg
  | Level l -> l.nviews

(* Cached per-level counter handles: counters are resolved from the obs
   registry by dotted-name lookup, which costs a string concatenation and a
   hash per call — far too much for something the search does at every
   visited level node. The handles are plain mutable records, so resolving
   them once per (tree, obs) pairing and indexing by level is safe. *)
type obs_handles = {
  h_obs : Mv_obs.Registry.t;
  h_searches : Mv_obs.Instrument.counter;
  h_level_in : Mv_obs.Instrument.counter array;  (** indexed by level *)
  h_level_out : Mv_obs.Instrument.counter array;
  h_strong_in : Mv_obs.Instrument.counter;
  h_strong_out : Mv_obs.Instrument.counter;
}

(* Every version of a tree shares its ancestors' handle cell: a write
   replaces [root] only, so the resolved counters survive churn. *)
type t = { plan : plan; root : node; handles : obs_handles option Atomic.t }

let empty ?(plan = default_plan) () =
  { plan; root = empty_node plan; handles = Atomic.make None }

let level_index = function
  | Hubs -> 0
  | Source_tables -> 1
  | Output_exprs -> 2
  | Output_cols -> 3
  | Residuals -> 4
  | Range_cols -> 5
  | Grouping_exprs -> 6
  | Grouping_cols -> 7

let all_levels =
  [
    Hubs;
    Source_tables;
    Output_exprs;
    Output_cols;
    Residuals;
    Range_cols;
    Grouping_exprs;
    Grouping_cols;
  ]

(* ---- keys ----

   All level keys are interned bitsets ({!Mv_util.Bitset} over the
   {!Mv_relalg.Intern} domains): the view side is precomputed once at
   registration ({!View.keys}), the query side once per rule invocation,
   and every subset / disjointness test the navigation performs is a
   word-level AND loop. *)

let view_key level (v : View.t) : Bitset.t =
  let k = v.View.keys in
  match level with
  | Hubs -> k.View.hub
  | Source_tables -> k.View.source_tables
  | Output_exprs -> k.View.output_exprs
  | Output_cols -> k.View.output_cols
  | Residuals -> k.View.residuals
  | Range_cols -> k.View.range_cols
  | Grouping_exprs -> k.View.grouping_exprs
  | Grouping_cols -> k.View.grouping_cols

(* Query-side search keys: the analysis' interned key record, computed once
   per analyzed expression and memoized there (see {!A.keys}). *)
type query_info = A.keys = {
  source_tables : Bitset.t;
  output_expr_templates : Bitset.t;
  output_classes : Bitset.t list;
      (** query equivalence class (interned) of each bare-column output *)
  residual_templates : Bitset.t;
  extended_range_cols : Bitset.t;
      (** all columns of every range-constrained query class *)
  grouping_expr_templates : Bitset.t;
  grouping_classes : Bitset.t list;
  is_aggregate : bool;
}

let query_info (q : A.t) : query_info = A.keys q

(* The search condition at each level, as (traversal direction, monotone
   predicate on node keys). Interning preserves monotonicity: string-set
   inclusion maps to bitset inclusion bit-for-bit, so `Up/`Down pruning
   stays sound (see DESIGN.md). *)
let level_search level (qi : query_info) =
  let covers_classes classes k =
    List.for_all (fun cls -> not (Bitset.inter_empty k cls)) classes
  in
  match level with
  | Hubs -> (`Up, fun k -> Bitset.subset k qi.source_tables)
  | Source_tables -> (`Down, fun k -> Bitset.subset qi.source_tables k)
  | Output_exprs -> (`Down, fun k -> Bitset.subset qi.output_expr_templates k)
  | Output_cols -> (`Down, covers_classes qi.output_classes)
  | Residuals -> (`Up, fun k -> Bitset.subset k qi.residual_templates)
  | Range_cols -> (`Up, fun k -> Bitset.subset k qi.extended_range_cols)
  | Grouping_exprs ->
      (`Down, fun k -> Bitset.subset qi.grouping_expr_templates k)
  | Grouping_cols -> (`Down, covers_classes qi.grouping_classes)

(* The strong range-constraint condition (section 4.2.5) cannot be indexed
   directly (it involves the view's full, class-aware constraint list), so
   the tree navigates by the weak condition and this check runs once per
   surviving candidate. *)
let strong_range_ok (qi : query_info) (v : View.t) =
  List.for_all
    (fun cls -> not (Bitset.inter_empty cls qi.extended_range_cols))
    v.View.keys.View.range_classes

(* ---- persistent add / remove ----

   A write rebuilds only the view's path: each level on it gets a new
   lattice (a copy of that one lattice, {!Lattice.add}/{!Lattice.remove})
   whose changed key points at the rebuilt child, and every other subtree
   is shared with the previous version. A lattice key whose subtree
   emptied is removed, so a long-lived registry that churns views never
   accumulates dead index nodes. *)

let rec add_node node (v : View.t) =
  match node with
  | Bucket views -> Bucket (v :: views)
  | Agg_split s ->
      if View.is_aggregate v then Agg_split { s with agg = add_node s.agg v }
      else Agg_split { s with spj = add_node s.spj v }
  | Level l ->
      let key = view_key l.level v in
      let child =
        match Lattice.find_exact l.lattice key with
        | Some ln -> ln.Lattice.payload
        | None -> empty_node l.rest
      in
      Level
        {
          l with
          lattice = Lattice.add l.lattice key (add_node child v);
          nviews = l.nviews + 1;
        }

let add t v = { t with root = add_node t.root v }

let rec remove_node node (v : View.t) =
  match node with
  | Bucket views ->
      Bucket (List.filter (fun x -> x.View.name <> v.View.name) views)
  | Agg_split s ->
      if View.is_aggregate v then Agg_split { s with agg = remove_node s.agg v }
      else Agg_split { s with spj = remove_node s.spj v }
  | Level l -> (
      let key = view_key l.level v in
      match Lattice.find_exact l.lattice key with
      | None -> node
      | Some ln ->
          let child = remove_node ln.Lattice.payload v in
          let left = views_under child in
          let lattice =
            if left = 0 then Lattice.remove l.lattice key
            else Lattice.add l.lattice key child
          in
          let removed = views_under ln.Lattice.payload - left in
          Level { l with lattice; nviews = l.nviews - removed })

let remove t v = { t with root = remove_node t.root v }

(* ---- search ---- *)

(* [record] is called once per visited level node with the number of views
   the node received and the number its surviving children still hold —
   summed per level by the caller, this is the paper's level-by-level
   pruning breakdown (Figures 6-7). *)
let rec search_node ?record node (qi : query_info) acc =
  match node with
  | Bucket views -> List.rev_append views acc
  | Agg_split s ->
      let acc = search_node ?record s.spj qi acc in
      if qi.is_aggregate then search_node ?record s.agg qi acc else acc
  | Level l ->
      let dir, pred = level_search l.level qi in
      let hits = Lattice.search l.lattice ~dir ~pred in
      (match record with
      | None -> ()
      | Some f ->
          let out =
            List.fold_left
              (fun n (ln : node Lattice.node) ->
                n + views_under ln.Lattice.payload)
              0 hits
          in
          f l.level ~in_:l.nviews ~out);
      List.fold_left
        (fun acc (ln : node Lattice.node) ->
          search_node ?record ln.Lattice.payload qi acc)
        acc hits

let level_counter obs level suffix =
  Mv_obs.Registry.counter obs
    ("filter_tree.level." ^ level_name level ^ "." ^ suffix)

(* Resolve (and cache) the counter handles for [obs]. The cache is keyed by
   physical equality on the registry: benches and tests that swap in a
   fresh registry get fresh handles, the common case (one registry per
   process) resolves everything exactly once. The cache cell is atomic so
   concurrent searches from several domains can share one tree: counter
   creation below is idempotent (the obs registry returns the existing
   instrument), so two domains racing here cache equivalent handles. *)
let handles_for t obs =
  match Atomic.get t.handles with
  | Some h when h.h_obs == obs -> h
  | _ ->
      let searches = Mv_obs.Registry.counter obs "filter_tree.searches" in
      let per_level suffix =
        (* every slot is overwritten below; [searches] is just a filler *)
        let arr = Array.make 8 searches in
        List.iter
          (fun l -> arr.(level_index l) <- level_counter obs l suffix)
          all_levels;
        arr
      in
      let h =
        {
          h_obs = obs;
          h_searches = searches;
          h_level_in = per_level "in";
          h_level_out = per_level "out";
          h_strong_in =
            Mv_obs.Registry.counter obs "filter_tree.strong_range.in";
          h_strong_out =
            Mv_obs.Registry.counter obs "filter_tree.strong_range.out";
        }
      in
      Atomic.set t.handles (Some h);
      h

(* Candidate views for the analyzed query expression, sorted by name. With
   [obs], bump [filter_tree.searches], per-level
   [filter_tree.level.<name>.in/out] and the post-navigation
   [filter_tree.strong_range.in/out] counters.

   The navigation order follows lattice ids and bucket order, which depend
   on the add/drop history; the optimizer lets the first of two equal-cost
   substitutes win, so the result is sorted to make plans a function of
   the population alone. *)
let candidates ?obs t (q : A.t) : View.t list =
  let qi = query_info q in
  let handles = Option.map (handles_for t) obs in
  let record =
    match handles with
    | None -> None
    | Some h ->
        Mv_obs.Instrument.incr h.h_searches;
        Some
          (fun level ~in_ ~out ->
            let i = level_index level in
            Mv_obs.Instrument.add h.h_level_in.(i) in_;
            Mv_obs.Instrument.add h.h_level_out.(i) out)
  in
  let navigated = search_node ?record t.root qi [] in
  let survivors = List.filter (strong_range_ok qi) navigated in
  (match handles with
  | None -> ()
  | Some h ->
      Mv_obs.Instrument.add h.h_strong_in (List.length navigated);
      Mv_obs.Instrument.add h.h_strong_out (List.length survivors));
  List.sort (fun a b -> String.compare a.View.name b.View.name) survivors

(* ---- provenance ---- *)

type stage =
  | Stage_level of level
  | Stage_agg_split
  | Stage_strong_range

let stage_name = function
  | Stage_level l -> level_name l
  | Stage_agg_split -> "agg-split"
  | Stage_strong_range -> "strong-range"

type fate = Pruned of stage | Passed

(* Why-not replay: walk the tree's plan for ONE view, applying exactly the
   predicates the search applies — each level's [level_search] predicate to
   the view's own precomputed key, the agg-split branch rule, and the
   post-navigation strong-range check. A view reaches the candidate set iff
   its key passes the predicate at every level on its path (the search
   soundness property, qcheck-tested against a reference implementation),
   so this replay names the exact stage that pruned it without ever
   touching — or slowing — the indexed search itself. *)
let provenance t (qi : query_info) (v : View.t) : stage list * fate =
  let agg_view = View.is_aggregate v in
  let rec go plan acc =
    match plan with
    | P_level (l, rest) ->
        let acc = Stage_level l :: acc in
        let _, pred = level_search l qi in
        if pred (view_key l v) then go rest acc
        else (List.rev acc, Pruned (Stage_level l))
    | P_split (spj, agg) ->
        let acc = Stage_agg_split :: acc in
        if not agg_view then go spj acc
        else if qi.is_aggregate then go agg acc
        else (List.rev acc, Pruned Stage_agg_split)
    | P_bucket ->
        let acc = Stage_strong_range :: acc in
        if strong_range_ok qi v then (List.rev acc, Passed)
        else (List.rev acc, Pruned Stage_strong_range)
  in
  go t.plan []

let fate t qi v = snd (provenance t qi v)

let stages t =
  let rec go = function
    | P_bucket -> []
    | P_level (l, rest) -> Stage_level l :: go rest
    | P_split (spj, agg) -> (Stage_agg_split :: go spj) @ go agg
  in
  go t.plan @ [ Stage_strong_range ]

(* Number of lattice nodes across all levels, for diagnostics. *)
let rec node_count = function
  | Bucket _ -> 0
  | Agg_split s -> node_count s.spj + node_count s.agg
  | Level l ->
      List.fold_left
        (fun acc (ln : node Lattice.node) ->
          acc + node_count ln.Lattice.payload)
        (Lattice.size l.lattice)
        (Lattice.nodes l.lattice)

let stats t = node_count t.root
