(* The benchmark driver: set up one workload, replay its seeded operation
   sequence in one closed-loop client, verify every result, and print the
   metrics (a table, then one JSON object as the last line).

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it runs several rounds, each a fresh set-up, warm-up,
   timed replay and verification; it reports the median set-up time and
   latency quantiles pooled over the rounds. With --trace 1 it sets up
   once, replays the sequence untraced and then with spans around every
   layer call, prints the per-layer metrics and writes the spans out as
   trace-event JSON. The exit code is 1 when any verification fails, 2 on
   bad arguments. *)

module W = Workload
module T = Tracer

(* ---- replay ----------------------------------------------------------- *)

type record = {
  ops : W.op array;
  lat : float array;  (** ns per operation *)
  ok : bool array;  (** completed, later also verified *)
  plans : Mv_opt.Plan.t option array;
  used_views : bool array;
  rows : int array;
  mutable wall_ns : int;
}

let errors = ref 0

let note_error i e =
  incr errors;
  if !errors <= 5 then
    Printf.eprintf "op %d failed: %s\n%!" i (Printexc.to_string e)

let replay (env : W.env) tr ops =
  let n = Array.length ops in
  let r =
    {
      ops;
      lat = Array.make n 0.0;
      ok = Array.make n false;
      plans = Array.make n None;
      used_views = Array.make n false;
      rows = Array.make n 0;
      wall_ns = 0;
    }
  in
  let start = T.now_ns () in
  for i = 0 to n - 1 do
    tr.T.op_id <- i;
    let timed f =
      let t0 = T.now_ns () in
      (match f () with () -> r.ok.(i) <- true | exception e -> note_error i e);
      r.lat.(i) <- float_of_int (T.now_ns () - t0)
    in
    match ops.(i) with
    | W.Read k ->
        let sql = env.sqls.(k) in
        timed (fun () ->
            let res, rows = W.read env tr sql in
            r.plans.(i) <- Some res.Mv_opt.Optimizer.plan;
            r.used_views.(i) <- res.Mv_opt.Optimizer.used_views;
            r.rows.(i) <- rows)
    | W.Write ->
        let batch, commit = Dml.next (Option.get env.dml) in
        timed (fun () -> W.write env tr batch);
        if r.ok.(i) then commit ()
    | W.Ddl v -> timed (fun () -> W.ddl env tr v)
  done;
  r.wall_ns <- T.now_ns () - start;
  r

let warmup (env : W.env) ~seed =
  let off = T.create () in
  Array.iter (fun sql -> ignore (W.read env off sql)) (W.warmup_sqls env ~seed);
  match env.dml with
  | Some d ->
      for _ = 1 to 2 do
        let batch, commit = Dml.next d in
        W.write env off batch;
        commit ()
      done
  | None -> ()

(* ---- verification (outside the timed loop) --------------------------- *)

(* Refine [ok] in place; return the problems found. paper1000 and
   view_churn never write base data, so every distinct (query, plan) pair
   the run produced is re-executed and compared with direct execution.
   exec_dml_sf32 checks, on the final database, the last instance of each
   (shape, rewritten or not) class through the whole read path, every
   maintained view against its rematerialization, and every constraint. *)
let verify (env : W.env) (recs : record list) =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let guarded f = try f () with e -> fail "%s" (Printexc.to_string e); false in
  (match env.kind with
  | W.Paper1000 | W.View_churn ->
      let checked = Hashtbl.create 512 in
      List.iter
        (fun r ->
          Array.iteri
            (fun i op ->
              match (op, r.plans.(i)) with
              | W.Read k, Some plan when r.ok.(i) ->
                  let key = (k, Mv_opt.Plan.to_string plan) in
                  let good, rows =
                    match Hashtbl.find_opt checked key with
                    | Some v -> v
                    | None ->
                        let v =
                          try W.check_plan env env.sqls.(k) plan
                          with e ->
                            fail "%s" (Printexc.to_string e);
                            (false, -1)
                        in
                        if not (fst v) then fail "query %d: plan differs from direct execution" k;
                        Hashtbl.add checked key v;
                        v
                  in
                  if rows <> r.rows.(i) then fail "op %d: row count differs" i;
                  r.ok.(i) <- good && rows = r.rows.(i)
              | _ -> ())
            r.ops)
        recs;
      Printf.eprintf "verified %d distinct (query, plan) pairs\n%!"
        (Hashtbl.length checked)
  | W.Exec_dml ->
      let last = Hashtbl.create 16 in
      List.iter
        (fun r ->
          Array.iteri
            (fun i op ->
              match op with
              | W.Read k when r.ok.(i) ->
                  Hashtbl.replace last (env.shape.(k), r.used_views.(i)) k
              | _ -> ())
            r.ops)
        recs;
      let off = T.create () in
      let good_class = Hashtbl.create 16 in
      Hashtbl.iter
        (fun cls k ->
          let sql = env.sqls.(k) in
          let good =
            guarded (fun () ->
                let res, _ = W.read env off sql in
                fst (W.check_plan env sql res.Mv_opt.Optimizer.plan))
          in
          if not good then
            fail "%s: plan differs from direct execution"
              W.shape_names.(fst cls);
          Hashtbl.replace good_class cls good)
        last;
      let view_problems = W.check_views env and audit = Dml.audit env.db in
      List.iter (fail "%s") (view_problems @ audit);
      let writes_good = view_problems = [] && audit = [] in
      List.iter
        (fun r ->
          Array.iteri
            (fun i op ->
              match op with
              | W.Read k ->
                  r.ok.(i) <-
                    r.ok.(i)
                    && Hashtbl.find good_class (env.shape.(k), r.used_views.(i))
              | W.Write -> r.ok.(i) <- r.ok.(i) && writes_good
              | W.Ddl _ -> ())
            r.ops)
        recs;
      Printf.eprintf
        "verified %d read classes, %d views, constraints over %d tables\n%!"
        (Hashtbl.length last) (List.length env.view_defs)
        (List.length env.db.Mv_engine.Database.schema.Mv_catalog.Schema.tables));
  List.rev !problems

(* ---- metrics -------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value =
  { name; unit_; value = (if Float.is_finite value then value else 0.0) }

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

let is_read = function W.Read _ -> true | _ -> false

let oks r = Array.fold_left (fun n ok -> if ok then n + 1 else n) 0 r.ok

(* Latencies of one class of operations, pooled over the rounds, in ms. *)
let class_ms recs pick =
  Array.concat
    (List.map
       (fun r ->
         let xs = ref [] in
         Array.iteri (fun i op -> if pick op then xs := (r.lat.(i) /. 1e6) :: !xs) r.ops;
         Array.of_list !xs)
       recs)

let end_to_end ~setup_s ~words recs =
  let attempted = fi (List.fold_left (fun a r -> a + Array.length r.ops) 0 recs) in
  let wall = fi (List.fold_left (fun a r -> a + r.wall_ns) 0 recs) /. 1e9 in
  let q = class_ms recs is_read and w = class_ms recs (fun op -> not (is_read op)) in
  [
    m "setup_s" "s" setup_s;
    m "ops_per_s" "1/s" (attempted /. wall);
    m "query_p50_ms" "ms" (T.quantile q 0.5);
    m "query_p90_ms" "ms" (T.quantile q 0.9);
    m "write_p50_ms" "ms" (T.quantile w 0.5);
    m "write_p90_ms" "ms" (T.quantile w 0.9);
    m "ok_frac" "ratio"
      (ratio (fi (List.fold_left (fun a r -> a + oks r) 0 recs)) attempted);
    m "minor_words_per_op" "words" (words /. attempted);
    m "top_heap_mb" "MB"
      (fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
  ]

(* Counters the layers keep themselves, read before and after a replay. *)
let counters (env : W.env) =
  let own = Mv_obs.Registry.counter_value env.registry.Mv_core.Registry.obs in
  let global = Mv_obs.Registry.counter_value Mv_obs.Registry.global in
  [
    ("rule.invocations", own "rule.invocations");
    ("rule.candidates", own "rule.candidates");
    ("rule.matched", own "rule.matched");
    ("hash", global "exec.join.strategy.hash");
    ("nlj", global "exec.join.strategy.nlj");
    ("inlj", global "exec.join.strategy.inlj");
    ("ivm.rows", global "ivm.rows.plus" + global "ivm.rows.minus");
    ("ivm.views", global "ivm.views.updated");
  ]
  @ match env.cache with Some c -> Mv_opt.Match_cache.stats c | None -> []

let delta c0 c1 k =
  fi
    ((match List.assoc_opt k c1 with Some v -> v | None -> 0)
    - match List.assoc_opt k c0 with Some v -> v | None -> 0)

let per_layer ~(phases : W.phases) ~untraced ~traced c0 c1 (g0 : Gc.stat)
    (g1 : Gc.stat) tr =
  let r = untraced in
  let n = fi (Array.length r.ops) in
  let count pick = Array.fold_left (fun a op -> if pick op then a + 1 else a) 0 r.ops in
  let reads = fi (count is_read)
  and writes = fi (count (fun op -> op = W.Write))
  and ddls = fi (count (function W.Ddl _ -> true | _ -> false)) in
  let d = delta c0 c1 in
  let hit_ratio layer =
    let h = d ("cache." ^ layer ^ ".hits") and mi = d ("cache." ^ layer ^ ".misses") in
    ratio h (h +. mi)
  in
  let used =
    fi (Array.fold_left (fun a u -> if u then a + 1 else a) 0 r.used_views)
  in
  let rows = fi (Array.fold_left ( + ) 0 r.rows) in
  let l = T.layer tr in
  let op_read = l T.op_read and op_write = l T.op_write and op_ddl = l T.op_ddl in
  let parse = l T.parse and opt = l T.optimize and exec = l T.exec in
  let ivm = l T.ivm and drop = l T.ddl_drop and add = l T.ddl_add in
  let p50_ms (x : T.layer) = T.quantile x.durations 0.5 /. 1e6 in
  let share (x : T.layer) (whole : T.layer) = ratio (fi x.total_ns) (fi whole.total_ns) in
  let per (x : T.layer) = ratio x.total_words (fi x.count) in
  let op_ns = op_read.total_ns + op_write.total_ns + op_ddl.total_ns in
  [
    m "parse.count" "count" (fi parse.count);
    m "parse.share" "ratio" (share parse op_read);
    m "parse.us_per_query" "us" (ratio (fi parse.total_ns /. 1e3) (fi parse.count));
    m "optimize.count" "count" (fi opt.count);
    m "optimize.p50_ms" "ms" (p50_ms opt);
    m "optimize.share" "ratio" (share opt op_read);
    m "optimize.words_per_query" "words" (per opt);
    m "rule.candidates_per_invocation" "count"
      (ratio (d "rule.candidates") (d "rule.invocations"));
    m "rule.matched_per_candidate" "ratio"
      (ratio (d "rule.matched") (d "rule.candidates"));
    m "opt.view_plan_frac" "ratio" (ratio used reads);
    m "cache.plan_hit_ratio" "ratio" (hit_ratio "plan");
    m "cache.match_hit_ratio" "ratio" (hit_ratio "match");
    m "cache.invalidations_per_ddl" "count"
      (ratio (d "cache.plan.invalidations" +. d "cache.match.invalidations") ddls);
    m "exec.count" "count" (fi exec.count);
    m "exec.p50_ms" "ms" (p50_ms exec);
    m "exec.share" "ratio" (share exec op_read);
    m "exec.words_per_query" "words" (per exec);
    m "exec.rows_per_query" "rows" (ratio rows reads);
    m "exec.join.hash_per_query" "count" (ratio (d "hash") reads);
    m "exec.join.nlj_per_query" "count" (ratio (d "nlj") reads);
    m "exec.join.inlj_per_query" "count" (ratio (d "inlj") reads);
    m "ivm.count" "count" (fi ivm.count);
    m "ivm.apply_p50_ms" "ms" (p50_ms ivm);
    m "ivm.share" "ratio" (share ivm op_write);
    m "ivm.words_per_batch" "words" (per ivm);
    m "ivm.rows_per_batch" "rows" (ratio (d "ivm.rows") writes);
    m "ivm.views_per_batch" "count" (ratio (d "ivm.views") writes);
    m "ddl.count" "count" (fi op_ddl.count);
    m "ddl.drop_p50_ms" "ms" (p50_ms drop);
    m "ddl.add_p50_ms" "ms" (p50_ms add);
    m "ddl.share" "ratio" (ratio (fi (drop.total_ns + add.total_ns)) (fi op_ddl.total_ns));
    m "ddl.words_per_op" "words" (per op_ddl);
    m "write.wall_share" "ratio"
      (ratio (fi (op_write.total_ns + op_ddl.total_ns)) (fi traced.wall_ns));
    m "setup.datagen_s" "s" phases.W.datagen;
    m "setup.materialize_s" "s" phases.materialize;
    m "setup.stats_s" "s" phases.stats_time;
    m "setup.registry_s" "s" phases.registry_time;
    m "gc.promoted_words_per_op" "words"
      ((g1.Gc.promoted_words -. g0.Gc.promoted_words) /. n);
    m "gc.major_collections" "count"
      (fi (g1.Gc.major_collections - g0.Gc.major_collections));
    m "trace.residue_frac" "ratio" (ratio (fi (T.residue_ns tr)) (fi op_ns));
    m "trace.overhead_frac" "ratio"
      (ratio (fi (traced.wall_ns - untraced.wall_ns)) (fi untraced.wall_ns));
  ]

(* ---- output ----------------------------------------------------------- *)

let json_float v = Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.printf "%-34s %16.6f %s\n" x.name x.value x.unit_)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (json_float x.value) x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* ---- main ------------------------------------------------------------ *)

let median xs = T.quantile (Array.of_list xs) 0.5

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME paper1000 | exec_dml_sf32 | view_churn");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S sequence length, in nominal seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let kind =
    match W.of_name !workload with
    | Some k when !seconds >= 1 && (!trace = 0 || !trace = 1) -> k
    | _ ->
        prerr_endline "bench: bad --workload, --seconds or --trace";
        exit 2
  in
  let seed = !seed and n = !seconds * W.reads_per_second kind in
  let setup_once () =
    let (env, phases), s = W.timed (fun () -> W.setup kind ~seed) in
    (env, phases, s)
  in
  let prepare env =
    let env, ops = W.sequence env ~seed ~n in
    warmup env ~seed;
    Gc.full_major ();
    (env, ops)
  in
  let finish ~attempted ~failed ~problems metrics =
    List.iter (Printf.eprintf "verification: %s\n") problems;
    let correct = problems = [] && failed = 0 in
    print_result ~correct ~attempted ~failed metrics;
    exit (if correct then 0 else 1)
  in
  if !trace = 0 then begin
    (* rounds: each sets up afresh, replays the sequence and verifies *)
    let recs = ref [] and times = ref [] and problems = ref [] in
    let words = ref 0.0 in
    for _ = 1 to W.rounds kind do
      Gc.compact ();
      let env, _, s = setup_once () in
      times := s :: !times;
      let env, ops = prepare env in
      let w0 = Gc.minor_words () in
      let r = replay env (T.create ()) ops in
      words := !words +. (Gc.minor_words () -. w0);
      problems := !problems @ verify env [ r ];
      Array.fill r.plans 0 (Array.length r.plans) None;
      recs := r :: !recs
    done;
    let recs = List.rev !recs in
    let attempted = List.fold_left (fun a r -> a + Array.length r.ops) 0 recs in
    let ok = List.fold_left (fun a r -> a + oks r) 0 recs in
    finish ~attempted ~failed:(attempted - ok) ~problems:!problems
      (end_to_end ~setup_s:(median !times) ~words:!words recs)
  end
  else begin
    let env, phases, _ = setup_once () in
    let env, ops = prepare env in
    let c0 = counters env and g0 = Gc.quick_stat () in
    let untraced = replay env (T.create ()) ops in
    let c1 = counters env and g1 = Gc.quick_stat () in
    let tr = T.create () in
    T.enable tr ~capacity:(4 * Array.length ops);
    Gc.full_major ();
    let traced = replay env tr ops in
    tr.T.on <- false;
    let problems = verify env [ untraced; traced ] in
    (try Sys.mkdir ".perfbench_out" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf ".perfbench_out/trace-%s-%d.json" !workload seed in
    T.write_json tr path;
    Printf.eprintf "spans: %d written to %s\n%!" tr.T.n path;
    let attempted = 2 * Array.length ops in
    finish ~attempted ~failed:(attempted - oks untraced - oks traced) ~problems
      (per_layer ~phases ~untraced ~traced c0 c1 g0 g1 tr)
  end
