(* The three workloads: how each sets up its database and registry, which
   operation sequence it replays, and how each operation drives the
   system through its public entry points.

   - paper1000: 1000 generated views over TPC-H scale-1 data, 200
     generated queries issued as SQL text in whole shuffled passes, no
     plan cache. After every third read one view is dropped and re-added
     on the plain registry (no published snapshots), the cheapest DDL
     path; many cheap samples keep that class's p90 steady.
   - exec_dml_sf32: TPC-H scale 32 with the three execution-benchmark
     views maintained incrementally; reads are six fixed query shapes
     with seeded range constants, every fifth operation is an order-churn
     write batch (see Dml).
   - view_churn: the paper1000 setup with RCU snapshots published and a
     match/plan cache; reads come from a 40-query hot set, each query
     equally often in a seeded order, and every tenth operation drops and
     re-adds one view.

   The database, the views and the query population are fixed; the seed
   picks the operation sequence (query order, range constants, which view
   a DDL operation churns, write customers). *)

open Mv_base
module Db = Mv_engine.Database
module R = Mv_core.Registry

let schema = Mv_tpch.Schema.schema

type kind = Paper1000 | Exec_dml | View_churn

let of_name = function
  | "paper1000" -> Some Paper1000
  | "exec_dml_sf32" -> Some Exec_dml
  | "view_churn" -> Some View_churn
  | _ -> None

(* Reads per unit of --seconds: it fixes how many operations a round
   replays, never how long it runs. *)
let reads_per_second = function
  | Paper1000 -> 60
  | Exec_dml -> 16
  | View_churn -> 36

(* End-to-end runs set up and replay the sequence this many times. *)
let rounds = function Paper1000 -> 3 | Exec_dml -> 5 | View_churn -> 3

type op =
  | Read of int  (** index into the environment's SQL table *)
  | Write  (** the next order-churn batch *)
  | Ddl of int  (** drop and re-add this view *)

type env = {
  kind : kind;
  db : Db.t;
  stats : Mv_catalog.Stats.t;
  registry : R.t;
  cache : Mv_opt.Match_cache.t option;
  ivm : Mv_engine.Ivm.t option;
  dml : Dml.t option;
  views : Mv_core.View.t array;
  view_defs : (string * Mv_relalg.Spjg.t) list;  (** one per view *)
  sqls : string array;  (** query population, or one text per read *)
  shape : int array;  (** exec_dml_sf32: shape index of each read *)
}

(* Seconds spent in each setup phase. *)
type phases = {
  datagen : float;
  materialize : float;
  stats_time : float;
  registry_time : float;
}

let timed f =
  let t0 = Tracer.now_ns () in
  let v = f () in
  (v, float_of_int (Tracer.now_ns () - t0) /. 1e9)

(* ---- exec_dml_sf32: views and query shapes ------------------------- *)

let exec_views =
  [
    "create view v_rev_cust with schemabinding as select o_custkey, \
     count_big(*) as cnt, sum(l_extendedprice) as rev from dbo.lineitem, \
     dbo.orders where l_orderkey = o_orderkey group by o_custkey";
    "create view v_qtyship with schemabinding as select l_orderkey, \
     l_partkey, l_quantity, l_extendedprice from dbo.lineitem where \
     l_quantity >= 25";
    "create view v_brand_qty with schemabinding as select p_brand, \
     count_big(*) as cnt, sum(l_quantity) as sq from dbo.lineitem, \
     dbo.part where l_partkey = p_partkey group by p_brand";
  ]

let shape_names =
  [| "q_custrev"; "q_bigcust"; "q_qty"; "q_brand"; "q_dims"; "q_pricey" |]

(* Reads cycle through the shapes in this fixed order. The weights keep
   the read latency quantiles inside one shape's mode instead of on the
   step between two: p50 falls among the q_custrev reads (30% of reads,
   after the three cheaper shapes' 30%), p90 among the q_pricey reads
   (the slowest 20%). *)
let shape_cycle = [| 0; 1; 0; 2; 3; 0; 5; 4; 2; 5 |]

(* One instance of a query shape, its range constants drawn from [rng].
   q_qty below 25 falls outside v_qtyship and runs on base tables. *)
let shape_sql rng shape =
  let between lo hi = lo + Random.State.int rng (hi - lo + 1) in
  match shape with
  | 0 ->
      "select o_custkey, sum(l_extendedprice) as rev from lineitem, orders \
       where l_orderkey = o_orderkey group by o_custkey"
  | 1 ->
      Printf.sprintf
        "select o_custkey, count_big(*) as cnt from lineitem, orders where \
         l_orderkey = o_orderkey and o_custkey <= %d group by o_custkey"
        (between 10 120)
  | 2 ->
      Printf.sprintf
        "select l_orderkey, l_extendedprice from lineitem where l_quantity \
         >= %d"
        (between 15 45)
  | 3 ->
      "select p_brand, sum(l_quantity) as sq from lineitem, part where \
       l_partkey = p_partkey group by p_brand"
  | 4 ->
      "select n_name, count_big(*) as cnt from supplier, nation, region \
       where s_nationkey = n_nationkey and n_regionkey = r_regionkey group \
       by n_name"
  | _ ->
      Printf.sprintf
        "select o_orderkey, p_name from lineitem, orders, part where \
         l_orderkey = o_orderkey and l_partkey = p_partkey and p_size >= %d \
         and o_totalprice >= %d"
        (between 30 48)
        (1000 * between 300 480)

(* ---- setup ---------------------------------------------------------- *)

let materialize_views db defs =
  let views =
    Array.of_list
      (List.map (fun (name, spjg) -> Mv_core.View.create schema ~name spjg) defs)
  in
  Array.iter (fun v -> ignore (Mv_engine.Exec.materialize db v)) views;
  views

(* The base data, the view definitions and, for the generated workloads,
   the query population as SQL text. paper1000 and view_churn use the
   paper's section 5 population; view_churn's hot set is the first 40
   queries of it. *)
let generate kind =
  match kind with
  | Exec_dml ->
      let db = Mv_tpch.Datagen.generate ~seed:42 ~scale:32 () in
      List.iter
        (fun (table, cols) -> Db.declare_index db ~table ~cols)
        [
          ("lineitem", [ "l_orderkey" ]);
          ("orders", [ "o_orderkey" ]);
          ("part", [ "p_partkey" ]);
          ("nation", [ "n_nationkey" ]);
          ("region", [ "r_regionkey" ]);
        ];
      (db, List.map (Mv_sql.Parser.parse_view schema) exec_views, [||])
  | Paper1000 | View_churn ->
      let db = Mv_tpch.Datagen.generate ~seed:42 ~scale:1 () in
      let base = Db.stats db in
      let nq = if kind = View_churn then 40 else 200 in
      ( db,
        Mv_workload.Generator.views ~seed:1001 schema base 1000,
        Array.of_list
          (List.map Mv_relalg.Spjg.to_sql
             (Mv_workload.Generator.queries ~seed:2002 schema base nq)) )

let setup kind ~seed =
  let (db, view_defs, sqls), datagen = timed (fun () -> generate kind) in
  let views, materialize = timed (fun () -> materialize_views db view_defs) in
  let stats, stats_time = timed (fun () -> Db.stats db) in
  let (registry, cache, ivm, dml), registry_time =
    timed (fun () ->
        let registry = R.create schema in
        Array.iter (R.add_prebuilt registry) views;
        match kind with
        | Paper1000 -> (registry, None, None, None)
        | View_churn ->
            ignore (R.snapshot registry);
            (registry, Some (Mv_opt.Match_cache.create registry), None, None)
        | Exec_dml ->
            let ivm = Mv_engine.Ivm.create db in
            Array.iter (Mv_engine.Ivm.attach ivm) views;
            (registry, None, Some ivm, Some (Dml.create ~seed db)))
  in
  ( {
      kind;
      db;
      stats;
      registry;
      cache;
      ivm;
      dml;
      views;
      view_defs;
      sqls;
      shape = [||];
    },
    { datagen; materialize; stats_time; registry_time } )

(* ---- operation sequences ------------------------------------------- *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* [reads] in order, with [other ()] after every [every]th one. *)
let interleave reads ~every other =
  let ops = ref [] in
  Array.iteri
    (fun k r ->
      ops := r :: !ops;
      if k mod every = every - 1 then ops := other () :: !ops)
    reads;
  Array.of_list (List.rev !ops)

(* The timed sequence around [n] reads, and for exec_dml_sf32 the SQL text
   and shape of each read. Same kind, seed and length: same operations.
   paper1000 reads whole shuffled passes over its queries and view_churn
   a shuffled multiset of its hot set, so whatever the seed every query is
   asked equally often. *)
let sequence env ~seed ~n : env * op array =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let ddl () = Ddl (Random.State.int rng (Array.length env.views)) in
  let nq = Array.length env.sqls in
  let each = max 1 (n / max 1 nq) in
  match env.kind with
  | Paper1000 ->
      let order =
        Array.concat (List.init each (fun _ -> shuffle rng (Array.init nq Fun.id)))
      in
      (env, interleave (Array.map (fun q -> Read q) order) ~every:3 ddl)
  | View_churn ->
      let order = shuffle rng (Array.init (each * nq) (fun i -> i mod nq)) in
      (env, interleave (Array.map (fun q -> Read q) order) ~every:9 ddl)
  | Exec_dml ->
      let shape = Array.init n (fun k -> shape_cycle.(k mod Array.length shape_cycle)) in
      let sqls = Array.map (shape_sql rng) shape in
      ( { env with sqls; shape },
        interleave (Array.init n (fun k -> Read k)) ~every:4 (fun () -> Write) )

(* Warm-up reads, run before the clock: every query once, or for
   exec_dml_sf32 two instances of each shape (their own PRNG stream). *)
let warmup_sqls env ~seed =
  match env.kind with
  | Exec_dml ->
      let rng = Random.State.make [| seed; 0x3a3a |] in
      Array.init 12 (fun i -> shape_sql rng (i mod Array.length shape_names))
  | _ -> env.sqls

(* ---- one operation --------------------------------------------------- *)

let optimize env q =
  match env.cache with
  | None -> Mv_opt.Optimizer.optimize env.registry env.stats q
  | Some cache ->
      let snap = R.snapshot env.registry in
      Mv_opt.Optimizer.optimize ~cache ~snap env.registry env.stats q

(* SQL text to rows: the plan chosen and the number of rows returned. *)
let read env tr sql =
  Tracer.span tr Tracer.op_read (fun () ->
      let q =
        Tracer.span tr Tracer.parse (fun () ->
            Mv_sql.Parser.parse_query schema sql)
      in
      let r = Tracer.span tr Tracer.optimize (fun () -> optimize env q) in
      let rel =
        Tracer.span tr Tracer.exec (fun () ->
            Mv_opt.Plan_exec.execute env.db q r.Mv_opt.Optimizer.plan)
      in
      (r, List.length rel.Mv_engine.Relation.rows))

let write env tr batch =
  Tracer.span tr Tracer.op_write (fun () ->
      Tracer.span tr Tracer.ivm (fun () ->
          Mv_engine.Ivm.apply (Option.get env.ivm) batch))

let ddl env tr v =
  let view = env.views.(v) in
  Tracer.span tr Tracer.op_ddl (fun () ->
      Tracer.span tr Tracer.ddl_drop (fun () ->
          R.remove_view env.registry view.Mv_core.View.name);
      Tracer.span tr Tracer.ddl_add (fun () -> R.add_prebuilt env.registry view))

(* ---- verification ---------------------------------------------------- *)

let same_rows (a : Value.t array list) (b : Value.t array list) =
  let sort = List.sort Mv_engine.Relation.row_order in
  List.length a = List.length b && List.equal ( = ) (sort a) (sort b)

(* Does this plan for [sql] return exactly what direct execution of the
   query does on the current database? Returns the plan's row count. *)
let check_plan env sql plan =
  let q = Mv_sql.Parser.parse_query schema sql in
  let got = Mv_opt.Plan_exec.execute env.db q plan in
  let want = Mv_engine.Exec.execute env.db q in
  ( same_rows got.Mv_engine.Relation.rows want.Mv_engine.Relation.rows,
    List.length got.Mv_engine.Relation.rows )

(* Every maintained view equals its rematerialization. *)
let check_views env =
  List.filter_map
    (fun (name, spjg) ->
      let want = Mv_engine.Exec.execute env.db spjg in
      let have = (Db.table_exn env.db name).Mv_engine.Table.rows in
      if same_rows have want.Mv_engine.Relation.rows then None
      else Some (name ^ ": maintained contents differ from rematerialization"))
    env.view_defs
