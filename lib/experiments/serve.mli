(** High-throughput serving front end over the RCU registry snapshots
    (DESIGN.md §10): per-domain L1 result caches in front of the shared
    epoch-validated match/plan cache, single-flight dedup of identical
    in-flight optimizations, and an open-loop Poisson/fixed-rate driver
    that sustains a query stream across OCaml 5 domains while views churn.

    Every {!submit} pins one {!Mv_core.Registry.snapshot} (wait-free — a
    single [Atomic.get], no reader-side mutex) and optimizes against
    exactly that registry state; the returned (epoch, result) pair is the
    observation the linearizability suite (test/test_serve.ml) replays
    against sequential optimization at that epoch. *)

(** {1 The front} *)

type front

val front :
  ?l1_capacity:int ->
  ?capacity:int ->
  Mv_core.Registry.t ->
  Mv_catalog.Stats.t ->
  front
(** A serving front over one registry: a shared {!Mv_opt.Match_cache} of
    [capacity] (default 4096), per-domain L1 LRUs of [l1_capacity]
    (default 512) keyed by the normalized query block and valid only at
    the current snapshot epoch, and the single-flight table. Counters go
    to the registry's obs instance: [cache.l1.hits|misses] (atomic — the
    per-domain caches share them without loss),
    [serve.flight.leaders|waits], and the [serve.latency] /
    [serve.service] histograms fed by {!run}. *)

val registry : front -> Mv_core.Registry.t

val cache : front -> Mv_opt.Match_cache.t

val submit : front -> Mv_relalg.Spjg.t -> int * Mv_opt.Optimizer.result
(** Serve one query: pin the current snapshot, then try the domain-local
    L1 (hit iff stamped with the pinned epoch), then probe the shared
    plan layer, then join-or-lead the query's flight — the leader runs
    {!Mv_opt.Optimizer.optimize} with the snapshot pinned while
    concurrent identical submits wait on its condvar, so a cold herd of K
    identical queries runs the optimizer exactly once (the [rule.*]
    counters advance as for one optimization; asserted by the
    single-flight stress test). Returns the epoch the result was computed
    at — a waiter reports its leader's epoch, which can lag its own
    snapshot by an in-flight mutation and is still a valid observation at
    that epoch. *)

val submit_traced :
  front ->
  spans:Mv_obs.Span.scope ->
  Mv_relalg.Spjg.t ->
  int * Mv_opt.Optimizer.result
(** One span-recorded submission through the shared-cache path (the
    caller's L1 is bypassed so the trace always shows the lookup, and —
    cold — the pinned optimization). For the Perfetto serve-trace
    artifact; not part of the measured hot path. *)

(** {1 The open-loop driver} *)

type cfg = {
  nviews : int;
  domains : int;  (** serving domains (the churn mutator is a separate one) *)
  rate : float;
      (** target arrival rate in queries/second across all domains,
          split evenly; [0.] = closed loop (back-to-back submission) *)
  poisson : bool;  (** exponential inter-arrivals instead of fixed-rate *)
  duration : float;  (** timed-window seconds *)
  warmup : bool;  (** one sequential cache-filling pass before the clock *)
  churn_period : float;  (** seconds between mutations; [0.] = no churn *)
  churn_pool : int;  (** tail views the mutator alternately drops/re-adds *)
  l1_capacity : int;
  capacity : int;
  sample : int;  (** observations kept per domain for the replay check *)
  sample_stride : int;  (** keep every k-th observation *)
  maintain_batch : int;
      (** base rows per delta batch the mutator pushes through
          {!Mv_engine.Ivm} every churn tick, against a private database
          and private view clones (serving plans must not depend on the
          write traffic or the replay would be unsound); [0] disables
          write traffic. Staleness flips on the live registry ride along
          — invisible to the default matcher, so serving is unaffected. *)
  maintain_views : int;  (** view clones the write traffic maintains *)
  advise : int;
      (** mine up to this many candidates from the workload's queries,
          advise under the default budget and register the picks (names
          prefixed [adv_]) before the clock starts. They join the
          replayed population but not the churn pool; {!measurement}
          reports them and the ones whose ledger account never matched
          (the dead-view gate). [0] = off *)
  timeline_period : float;
      (** seconds between {!Mv_obs.Timeline} sampler ticks, taken by a
          dedicated domain over the registry's obs instance; [0.] = no
          sampler *)
  seed : int;  (** arrival-process PRNG seed (deterministic schedules) *)
}

val default_cfg : cfg
(** 1000 views, 2 domains, 200 qps Poisson for 1.5 s, churn every 120 ms
    over an 8-view pool — the [bench --serve] acceptance configuration. *)

type measurement = {
  sv_nviews : int;
  sv_domains : int;
  sv_rate : float;
  sv_poisson : bool;
  sv_wall : float;
  sv_queries : int;
  sv_qps : float;
  sv_lat_p50 : float;
  sv_lat_p90 : float;
  sv_lat_p99 : float;
      (** open-loop latency (seconds): completion minus {e scheduled}
          arrival, so falling behind the arrival schedule shows up as
          queueing delay instead of silently shrinking the numbers *)
  sv_srv_p50 : float;
  sv_srv_p90 : float;
  sv_srv_p99 : float;  (** service time: the submit call alone *)
  sv_l1_hits : int;
  sv_l1_misses : int;
  sv_flight_leaders : int;
  sv_flight_waits : int;
  sv_plan_hits : int;
  sv_plan_misses : int;
  sv_match_hits : int;
  sv_match_misses : int;  (** counter deltas over the timed window *)
  sv_mutations : int;
  sv_maint_batches : int;  (** delta batches applied during the window *)
  sv_maint_consistent : bool;
      (** every maintained view clone ended bag-equal (floats within
          tolerance) to a from-scratch recomputation; [true] when
          [maintain_batch = 0] *)
  sv_epoch_lo : int;
  sv_epoch_hi : int;
  sv_sampled : int;
  sv_consistent : bool;
      (** linearizability verdict: every sampled (epoch, query, plan)
          observation is byte-identical to sequential optimization
          against a scratch registry rebuilt at that epoch's population *)
  sv_advised : string list;  (** advised-and-registered view names *)
  sv_dead : string list;
      (** advised views whose ledger account never matched — the
          dead-view gate trips when non-empty *)
  sv_windows : (float * int * float) list;
      (** per timeline window: (length s, submissions completed, p99
          open-loop latency); empty when [timeline_period = 0.] *)
  sv_timeline : Mv_obs.Json.t;  (** {!Mv_obs.Timeline.to_json} export *)
  sv_health : Mv_obs.Json.t;  (** {!Mv_core.Health.to_json} export *)
}

val run : ?cfg:cfg -> Harness.workload -> measurement
(** Build a registry over the first [cfg.nviews] workload views,
    optionally warm the shared cache, then run
    [cfg.domains] open-loop serving domains plus one churn-mutator domain
    for [cfg.duration] seconds and replay the sampled observations. The
    arrival schedules and the mutation sequence are deterministic given
    [cfg]; the interleaving (and so the counters and latencies) is not. *)
