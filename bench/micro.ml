(** Bechamel micro-benchmarks: one [Test.make] per core operation of the
    paper's system, so regressions in the hot path (the view-matching rule
    and the filter tree) are visible in isolation. *)

open Bechamel
open Toolkit

let schema = Mv_tpch.Schema.schema
let stats = Mv_tpch.Datagen.synthetic_stats ()

let accept_view_sql =
  {| create view mb_v with schemabinding as
     select l_orderkey, o_custkey, l_partkey, l_quantity, l_extendedprice,
            o_orderdate, l_shipdate, p_name
     from dbo.lineitem, dbo.orders, dbo.part
     where l_orderkey = o_orderkey and l_partkey = p_partkey
       and p_partkey >= 150 and o_custkey >= 50 and o_custkey <= 500
       and p_name like '%abc%' |}

let accept_query_sql =
  {| select l_orderkey, o_custkey
     from lineitem, orders, part
     where l_orderkey = o_orderkey and l_partkey = p_partkey
       and o_orderdate = l_shipdate
       and l_partkey >= 150 and l_partkey <= 160 and o_custkey = 123
       and p_name like '%abc%'
       and l_quantity * l_extendedprice > 100 |}

let reject_query_sql =
  {| select s_name from supplier, nation
     where s_nationkey = n_nationkey and s_acctbal >= 1000 |}

let view =
  let name, spjg = Mv_sql.Parser.parse_view schema accept_view_sql in
  Mv_core.View.create schema ~name spjg

let accept_query =
  Mv_relalg.Analysis.analyze schema
    (Mv_sql.Parser.parse_query schema accept_query_sql)

let reject_query =
  Mv_relalg.Analysis.analyze schema
    (Mv_sql.Parser.parse_query schema reject_query_sql)

(* a registry with 1000 workload views, filter tree enabled *)
let registry_1000 =
  let r = Mv_core.Registry.create ~use_filter:true schema in
  List.iter
    (fun (name, spjg) ->
      Mv_core.Registry.add_prebuilt r (Mv_core.View.create schema ~name spjg))
    (Mv_workload.Generator.views schema stats 1000);
  r

let registry_1000_nofilter =
  let r = Mv_core.Registry.create ~use_filter:false schema in
  List.iter (Mv_core.Registry.add_prebuilt r)
    (Mv_core.Registry.views registry_1000);
  r

let query_pred =
  match
    (Mv_sql.Parser.parse_query schema accept_query_sql).Mv_relalg.Spjg.where
  with
  | ps -> Mv_base.Pred.conj ps

let tests =
  [
    Test.make ~name:"match_view accept"
      (Staged.stage (fun () ->
           Mv_core.Matcher.match_view ~query:accept_query view));
    Test.make ~name:"match_view reject"
      (Staged.stage (fun () ->
           Mv_core.Matcher.match_view ~query:reject_query view));
    Test.make ~name:"analyze query block"
      (Staged.stage (fun () ->
           Mv_relalg.Analysis.analyze schema accept_query.Mv_relalg.Analysis.spjg));
    Test.make ~name:"filter-tree probe @1000 views"
      (Staged.stage (fun () ->
           Mv_core.Registry.candidates registry_1000 accept_query));
    Test.make ~name:"rule: filter+match @1000 views"
      (Staged.stage (fun () ->
           Mv_core.Registry.find_substitutes registry_1000 accept_query));
    Test.make ~name:"rule: linear scan @1000 views"
      (Staged.stage (fun () ->
           Mv_core.Registry.find_substitutes registry_1000_nofilter
             accept_query));
    Test.make ~name:"cnf conversion"
      (Staged.stage (fun () -> Mv_relalg.Cnf.conjuncts query_pred));
    Test.make ~name:"view descriptor creation"
      (Staged.stage (fun () ->
           Mv_core.View.create schema ~name:"tmp"
             (Mv_core.View.spjg view)));
  ]

let run () =
  Printf.printf "\n== Microbenchmarks (bechamel, monotonic clock) ==\n";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let test = Test.make_grouped ~name:"micro" tests in
  let raw = Benchmark.all cfg instances test in
  let results =
    Analyze.merge ols instances
      (List.map (fun i -> Analyze.all ols i raw) instances)
  in
  Hashtbl.iter
    (fun meas tbl ->
      let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
      List.iter
        (fun (name, ols_res) ->
          let est =
            match Analyze.OLS.estimates ols_res with
            | Some (e :: _) -> e
            | _ -> nan
          in
          Printf.printf "%-40s %12.0f ns/run (%s)\n" name est meas)
        (List.sort compare rows))
    results
