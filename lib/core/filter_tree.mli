(** The filter tree of section 4: a stack of lattice indexes — one per
    partitioning condition — that narrows the view population to a small
    candidate set before the per-view tests run.

    Level order follows the paper's implementation: hubs, source tables,
    output expressions, output columns, residual predicates, range
    constraints; aggregation views get two more levels (grouping
    expressions, grouping columns) while SPJ views terminate early, since
    an aggregation view can never answer an SPJ query.

    A tree is an immutable value: {!add} and {!remove} return a new tree
    that shares every subtree off the changed view's path with its
    argument, so a published tree can be searched from any number of
    domains while the next version is built. *)

type level =
  | Hubs
  | Source_tables
  | Output_exprs
  | Output_cols
  | Residuals
  | Range_cols
  | Grouping_exprs
  | Grouping_cols

val level_name : level -> string

type plan = P_level of level * plan | P_split of plan * plan | P_bucket

val plan_levels : plan -> level list
(** Levels in navigation order (split branches concatenated, duplicates
    possible across branches but not produced by the built-in plans). *)

val default_plan : plan

val backjoin_plan : plan
(** Without the two output-column/expression levels, which stop being
    necessary conditions once backjoins can restore missing columns. *)

type t

val empty : ?plan:plan -> unit -> t

type query_info = {
  source_tables : Mv_util.Bitset.t;
  output_expr_templates : Mv_util.Bitset.t;
  output_classes : Mv_util.Bitset.t list;
  residual_templates : Mv_util.Bitset.t;
  extended_range_cols : Mv_util.Bitset.t;
  grouping_expr_templates : Mv_util.Bitset.t;
  grouping_classes : Mv_util.Bitset.t list;
  is_aggregate : bool;
}

val query_info : Mv_relalg.Analysis.t -> query_info
(** The query-side search keys (interned bitsets over the
    {!Mv_relalg.Intern} domains), computed once per analysis and memoized
    there ({!Mv_relalg.Analysis.keys}). *)

val view_key : level -> View.t -> Mv_util.Bitset.t
(** The view's precomputed key for a level (from {!View.keys}). *)

val strong_range_ok : query_info -> View.t -> bool
(** The full range-constraint condition of section 4.2.5, applied per
    candidate after the tree navigates by the weak condition. *)

val add : t -> View.t -> t
(** The tree with the view indexed: the lattices on its path are copied
    (new keys linked in), everything else is shared. The view's name must
    not already be in the tree. *)

val remove : t -> View.t -> t
(** The tree without the view (matched by name): the lattices on its path
    are copied, and a lattice key whose subtree emptied is removed, so
    churn never accumulates dead nodes. *)

val candidates :
  ?obs:Mv_obs.Registry.t -> t -> Mv_relalg.Analysis.t -> View.t list
(** The candidate views, sorted by name — an order that depends on the
    population only, never on the add/drop history that built the tree.
    With [obs], each search bumps [filter_tree.searches], the per-level
    [filter_tree.level.<name>.in]/[.out] candidate counters (how many
    views entered the level's nodes and how many survived into their
    children), and [filter_tree.strong_range.in]/[.out] for the
    post-navigation section 4.2.5 check. *)

val stats : t -> int
(** Total lattice nodes across all levels. *)

(** {1 Rejection provenance ("why-not")}

    A pruning stage is either one of the indexed levels, the SPJ/aggregate
    split (an aggregation view can never answer an SPJ query), or the
    post-navigation strong range check of section 4.2.5. *)

type stage =
  | Stage_level of level
  | Stage_agg_split
  | Stage_strong_range

val stage_name : stage -> string
(** [level_name] for levels, ["agg-split"], ["strong-range"]. *)

type fate = Pruned of stage  (** first stage whose test the view fails *)
          | Passed  (** the view reaches the candidate set *)

val provenance : t -> query_info -> View.t -> stage list * fate
(** Replay the tree's plan for one view: the stages the view enters, in
    navigation order (ending at the stage that pruned it, or spanning its
    whole path when it passed), and its fate. Exact with respect to
    {!candidates} — the view is in the candidate set iff its fate is
    [Passed] — because each stage applies the same predicate the search
    applies to the same precomputed key. Costs one predicate evaluation
    per stage on the view's path; the indexed search is untouched. *)

val fate : t -> query_info -> View.t -> fate

val stages : t -> stage list
(** Every stage of the tree's plan in navigation order (split branches
    concatenated), with [Stage_strong_range] last. *)
