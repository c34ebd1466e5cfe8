(** The view registry: all materialized views, indexed by a filter tree,
    with the counters the paper's evaluation reports (candidate fraction,
    pass rate, substitutes per invocation). This is the entry point the
    optimizer's view-matching rule calls.

    All measurement goes through an [Mv_obs] registry (one scoped instance
    per view registry unless the caller shares one): the rule maintains the
    [rule.*] counters and the [rule.time] wall+CPU timer, the filter tree
    contributes its per-level [filter_tree.*] counters, and — when tracing
    is on — every invocation appends a [rule] event carrying the query's
    table set and the candidate/match counts. The historical [stats] record
    survives as a read-only façade computed from the instruments. *)

module A = Mv_relalg.Analysis
module Obs = Mv_obs.Registry

type stats = {
  invocations : int;
  candidates : int;  (** views surviving the filter tree *)
  matched : int;  (** candidates that produced a substitute *)
  substitutes : int;
  rule_time : float;
      (** cumulative CPU seconds spent inside the view-matching rule
          (filtering + per-view tests + substitute construction); wall time
          is on the [rule.time] timer of {!field-obs} *)
}

module Smap = Map.Make (String)
module Imap = Map.Make (Int)

(* The population: name-keyed, so lookup, add and drop cost O(log views),
   plus a sequence number per view so that listing keeps registration
   order. *)
type views = {
  by_name : (int * View.t) Smap.t;  (** name -> (sequence number, view) *)
  by_seq : View.t Imap.t;
  next_seq : int;
}

let no_views = { by_name = Smap.empty; by_seq = Imap.empty; next_seq = 0 }

type snapshot = {
  snap_epoch : int;
  snap_views : views;
  snap_tree : Filter_tree.t;
}

type t = {
  schema : Mv_catalog.Schema.t;
  relaxed_nulls : bool;
  backjoins : bool;
  mutable use_filter : bool;
  obs : Obs.t;
  health : Health.t;
  tracing : bool;
  state : snapshot Atomic.t;
      (** the one registry state (DESIGN.md §10): every effective add/drop
          builds the next (epoch, views, tree) record under [write] and
          publishes it with one [Atomic.set]; a reader pins one with a
          single [Atomic.get] and sees an internally consistent registry
          that nothing ever mutates. *)
  write : Mutex.t;  (** serializes writers; never taken on a read path *)
}

exception Duplicate_view of string

let create ?(relaxed_nulls = false) ?(backjoins = false) ?(use_filter = true)
    ?obs ?(tracing = false) schema =
  let obs =
    match obs with
    | Some o -> o
    | None -> Obs.create ~trace_capacity:(if tracing then 256 else 0) ()
  in
  let plan =
    if backjoins then Filter_tree.backjoin_plan else Filter_tree.default_plan
  in
  {
    schema;
    relaxed_nulls;
    backjoins;
    use_filter;
    obs;
    health = Health.create ();
    tracing;
    state =
      Atomic.make
        {
          snap_epoch = 0;
          snap_views = no_views;
          snap_tree = Filter_tree.empty ~plan ();
        };
    write = Mutex.create ();
  }

let snapshot t = Atomic.get t.state

let epoch t = (snapshot t).snap_epoch

(* The registry state a read runs against: the caller's pinned snapshot or
   the published one. *)
let current ?snap t = match snap with Some s -> s | None -> snapshot t

(* The population of a state in registration order, and its size. *)
let listed s = List.of_seq (Seq.map snd (Imap.to_seq s.snap_views.by_seq))

let population s = Smap.cardinal s.snap_views.by_name

let views ?snap t = listed (current ?snap t)

let stats t =
  {
    invocations = Obs.counter_value t.obs "rule.invocations";
    candidates = Obs.counter_value t.obs "rule.candidates";
    matched = Obs.counter_value t.obs "rule.matched";
    substitutes = Obs.counter_value t.obs "rule.substitutes";
    rule_time = Mv_obs.Instrument.cpu (Obs.timer t.obs "rule.time");
  }

let view_count t = population (snapshot t)

let find_view t name =
  Option.map snd (Smap.find_opt name (snapshot t).snap_views.by_name)

(* Build and publish the next state under the write lock: [f] maps the
   current state to the new (views, tree) pair, or [None] for a no-op
   (which publishes nothing and keeps the epoch). An exception from [f]
   (Duplicate_view, View.Rejected) leaves the registry untouched. *)
let publish t f =
  Mutex.protect t.write (fun () ->
      let s = Atomic.get t.state in
      match f s with
      | None -> ()
      | Some (snap_views, snap_tree) ->
          Atomic.set t.state
            { snap_epoch = s.snap_epoch + 1; snap_views; snap_tree })

let add_locked (s : snapshot) (view : View.t) =
  let name = view.View.name in
  let vs = s.snap_views in
  if Smap.mem name vs.by_name then raise (Duplicate_view name);
  (* extend the interners' lock-free snapshot over any symbols the view
     introduced (a no-op when it introduced none), so reader-side key
     building stays on the frozen fast path *)
  Mv_relalg.Intern.freeze ();
  Some
    ( {
        by_name = Smap.add name (vs.next_seq, view) vs.by_name;
        by_seq = Imap.add vs.next_seq view vs.by_seq;
        next_seq = vs.next_seq + 1;
      },
      Filter_tree.add s.snap_tree view )

(* Define (and index) a materialized view. *)
let add_view t ?(row_count = 0) ?(indexes = []) ~name spjg : View.t =
  let created = ref None in
  publish t (fun s ->
      if Smap.mem name s.snap_views.by_name then raise (Duplicate_view name);
      let view =
        View.create ~relaxed_nulls:t.relaxed_nulls ~row_count ~indexes
          t.schema ~name spjg
      in
      created := Some view;
      add_locked s view);
  Option.get !created

(* Register an already-created view descriptor (lets experiment sweeps
   share one descriptor across many registries instead of re-analyzing). *)
let add_prebuilt t (view : View.t) = publish t (fun s -> add_locked s view)

(* Drop a view. A missing name is a no-op and does NOT advance the epoch. *)
let remove_view t name =
  publish t (fun s ->
      let vs = s.snap_views in
      match Smap.find_opt name vs.by_name with
      | None -> None
      | Some (seq, v) ->
          Some
            ( {
                vs with
                by_name = Smap.remove name vs.by_name;
                by_seq = Imap.remove seq vs.by_seq;
              },
              Filter_tree.remove s.snap_tree v ))

(* Candidate views for a query expression: via the filter tree, or a
   linear scan when the tree is disabled (the paper's "No Filter"
   configuration). *)
let candidates ?snap t (q : A.t) =
  let s = current ?snap t in
  if t.use_filter then Filter_tree.candidates ~obs:t.obs s.snap_tree q
  else listed s

(* At most this many view names are spelled out in a span attribute; the
   rest collapse into a count so traces of 1000-view registries stay
   readable and bounded. *)
let names_cap = 16

let capped_names views =
  let names = List.map (fun v -> v.View.name) views in
  let n = List.length names in
  if n <= names_cap then String.concat "," names
  else
    String.concat "," (List.filteri (fun i _ -> i < names_cap) names)
    ^ Printf.sprintf ",+%d more" (n - names_cap)

(* One instant event per filter-tree stage under [sub], carrying how many
   views entered the stage, how many it pruned (with their names, capped)
   and how many it passed on. Computed by replaying {!Filter_tree.provenance}
   over the population — exact with respect to the indexed search, and only
   ever run on traced invocations, so the search itself stays untouched. *)
let record_stage_notes snap sub (q : A.t) =
  let qi = Filter_tree.query_info q in
  let tallies = Hashtbl.create 16 in
  let tally s =
    let key = Filter_tree.stage_name s in
    match Hashtbl.find_opt tallies key with
    | Some x -> x
    | None ->
        let x = (ref 0, ref []) in
        Hashtbl.add tallies key x;
        x
  in
  List.iter
    (fun v ->
      let path, fate = Filter_tree.provenance snap.snap_tree qi v in
      List.iter (fun s -> incr (fst (tally s))) path;
      match fate with
      | Filter_tree.Pruned s ->
          let _, pruned = tally s in
          pruned := v :: !pruned
      | Filter_tree.Passed -> ())
    (listed snap);
  List.iter
    (fun s ->
      let key = Filter_tree.stage_name s in
      match Hashtbl.find_opt tallies key with
      | None -> ()
      | Some (entered, pruned) ->
          let pruned = List.rev !pruned in
          let npruned = List.length pruned in
          Mv_obs.Span.note sub ("stage:" ^ key) (fun () ->
              [
                ("entered", Mv_obs.Span.Int !entered);
                ("pruned", Mv_obs.Span.Int npruned);
                ("out", Mv_obs.Span.Int (!entered - npruned));
              ]
              @
              if pruned = [] then []
              else [ ("pruned_views", Mv_obs.Span.Str (capped_names pruned)) ]))
    (Filter_tree.stages snap.snap_tree)

(* The view-matching rule body: find all views that can compute [q] and
   build one substitute per view. Returns the candidate set alongside the
   substitutes so the match cache can store both (the candidates are what
   the model-based tests compare against a from-scratch rebuild). *)
let match_with_candidates ?spans ?snap ?(fresh_only = false) t (q : A.t) :
    View.t list * Substitute.t list =
  (* one snapshot per invocation: the candidate search, the population
     counts and the traced stage replay all see the same registry state *)
  let s = current ?snap t in
  let span = Mv_obs.Instrument.enter () in
  Mv_obs.Instrument.incr (Obs.counter t.obs "rule.invocations");
  let cands =
    Mv_obs.Span.wrap spans "filter" (fun sub ->
        let cands = candidates ~snap:s t q in
        if sub <> None then begin
          Mv_obs.Span.annotate sub (fun () ->
              [
                ("population", Mv_obs.Span.Int (population s));
                ("candidates", Mv_obs.Span.Int (List.length cands));
                ("indexed", Mv_obs.Span.Bool t.use_filter);
              ]);
          if t.use_filter then record_stage_notes s sub q
        end;
        cands)
  in
  Mv_obs.Instrument.add (Obs.counter t.obs "rule.candidates")
    (List.length cands);
  List.iter (fun v -> Health.record_candidate t.health v.View.name) cands;
  let subs =
    List.filter_map
      (fun v ->
        Mv_obs.Span.wrap spans ("match:" ^ v.View.name) (fun sub ->
            match
              Matcher.match_view ~relaxed_nulls:t.relaxed_nulls
                ~backjoins:t.backjoins ~fresh_only ?spans:sub ~query:q v
            with
            | Ok s -> Some s
            | Error _ -> None))
      cands
  in
  Mv_obs.Instrument.add (Obs.counter t.obs "rule.matched") (List.length subs);
  Mv_obs.Instrument.add (Obs.counter t.obs "rule.substitutes")
    (List.length subs);
  List.iter
    (fun (s : Substitute.t) ->
      Health.record_matched t.health s.Substitute.view.View.name)
    subs;
  Mv_obs.Instrument.exit_into (Obs.timer t.obs "rule.time") span;
  if t.tracing then begin
    let wall, _ = Mv_obs.Instrument.elapsed span in
    Mv_obs.Trace.record (Obs.trace t.obs) "rule"
      [
        ("tables", Mv_obs.Json.String (Mv_util.Sset.to_string q.A.table_set));
        ("population", Mv_obs.Json.Int (population s));
        ("candidates", Mv_obs.Json.Int (List.length cands));
        ("matched", Mv_obs.Json.Int (List.length subs));
        ( "views",
          Mv_obs.Json.List
            (List.map
               (fun (s : Substitute.t) ->
                 Mv_obs.Json.String s.Substitute.view.View.name)
               subs) );
        ("wall_s", Mv_obs.Json.Float wall);
      ]
  end;
  (cands, subs)

let find_substitutes ?spans ?snap ?fresh_only t (q : A.t) :
    Substitute.t list =
  snd (match_with_candidates ?spans ?snap ?fresh_only t q)

(* ---- freshness (DESIGN.md §12) ----

   Staleness marks live on the shared [View.t] descriptors (an atomic
   bool), so marking needs no epoch bump or republication: snapshots share
   the descriptors and the population did not change. Matching behavior is
   unchanged unless a caller opts into [fresh_only]. *)

let mark_stale t ~tables : int =
  let hit (v : View.t) =
    List.exists (fun tn -> Mv_util.Sset.mem tn v.View.source_tables) tables
  in
  List.fold_left
    (fun n v ->
      if hit v && not (View.is_stale v) then begin
        View.mark_stale v;
        Health.record_stale t.health v.View.name;
        n + 1
      end
      else n)
    0 (views t)

(* ---- why-not ---- *)

type explanation =
  | Filtered of Filter_tree.stage
  | Rejected of Reject.t
  | Matched of Substitute.t

(* Account for every registered view: the exact filter-tree stage that
   pruned it, the [Reject.t] the matcher returned, or its substitute.
   Filtering is replayed per view via {!Filter_tree.provenance} (exact with
   respect to {!candidates}); views that pass are re-tested through the
   real matcher. Deliberately bumps NO [rule.*] counters — explanation is a
   diagnostic read, not a rule invocation. With [use_filter] off every view
   goes straight to the matcher, mirroring the "No Filter" configuration. *)
let explain ?snap ?(fresh_only = false) t (q : A.t) :
    (View.t * explanation) list =
  let s = current ?snap t in
  let qi = Filter_tree.query_info q in
  List.map
    (fun v ->
      let fate =
        if t.use_filter then Filter_tree.fate s.snap_tree qi v
        else Filter_tree.Passed
      in
      match fate with
      | Filter_tree.Pruned stage -> (v, Filtered stage)
      | Filter_tree.Passed -> (
          match
            Matcher.match_view ~relaxed_nulls:t.relaxed_nulls
              ~backjoins:t.backjoins ~fresh_only ~query:q v
          with
          | Ok sub -> (v, Matched sub)
          | Error e -> (v, Rejected e)))
    (listed s)

let find_substitutes_spjg t (spjg : Mv_relalg.Spjg.t) =
  find_substitutes t (A.analyze t.schema spjg)

(* Union substitutes (section 7) over the filtered... no: views that fail
   the range test are pruned by the filter tree's range level, so the
   union finder scans the full population restricted by the cheap table
   condition. *)
let find_union_substitutes ?snap ?(fresh_only = false) t (q : A.t) :
    Union_substitute.t option =
  let coarse =
    List.filter
      (fun v ->
        Mv_util.Bitset.subset q.A.table_key v.View.keys.View.source_tables
        && not (fresh_only && View.is_stale v))
      (views ?snap t)
  in
  Union_match.find ~relaxed_nulls:t.relaxed_nulls ~backjoins:t.backjoins q
    coarse

let reset_stats t = Obs.reset t.obs
