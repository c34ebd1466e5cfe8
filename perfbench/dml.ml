(* Constraint-valid, size-neutral order churn for the write workload, and
   the audit of every declared constraint over the final database.

   Writes alternate between two batch shapes. An insert batch copies the
   oldest live order under a fresh order key (parent row first, then its
   lineitems, whose (part, supplier) pairs are therefore existing
   partsupp keys) and gives it a seeded customer. A delete batch removes
   the oldest order's lineitems first, then the order. Every insert is
   followed by the delete of the order it copied, so after each pair the
   tables hold exactly as many rows, with the same lineitem contents, as
   before it: the last batch costs what the first did. *)

open Mv_base
module Db = Mv_engine.Database

type order = { row : Value.t array; lines : Value.t array list }

type t = {
  live : int Queue.t;  (** order keys, oldest first *)
  orders : (int, order) Hashtbl.t;
  mutable next_key : int;
  customers : int;
  rng : Random.State.t;
  mutable insert_next : bool;
}

let int_of = function Value.Int k -> k | _ -> invalid_arg "Dml: key not an int"

let create ~seed db =
  let tbl name = (Db.table_exn db name).Mv_engine.Table.rows in
  let orders = Hashtbl.create 4096 in
  List.iter
    (fun row -> Hashtbl.replace orders (int_of row.(0)) { row; lines = [] })
    (tbl "orders");
  List.iter
    (fun line ->
      let k = int_of line.(0) in
      let o = Hashtbl.find orders k in
      Hashtbl.replace orders k { o with lines = line :: o.lines })
    (tbl "lineitem");
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) orders []) in
  let live = Queue.create () in
  List.iter (fun k -> Queue.add k live) keys;
  {
    live;
    orders;
    next_key = 1 + List.fold_left max 0 keys;
    customers = List.length (tbl "customer");
    rng = Random.State.make [| seed; 0x0d41 |];
    insert_next = true;
  }

(* The next batch, and the state change to commit once it is applied.
   A batch that fails is not committed, so the sequence stays valid. *)
let next t : Mv_engine.Ivm.batch * (unit -> unit) =
  let oldest = Queue.peek t.live in
  let o = Hashtbl.find t.orders oldest in
  if t.insert_next then begin
    let key = t.next_key in
    let row = Array.copy o.row in
    row.(0) <- Value.Int key;
    row.(1) <- Value.Int (1 + Random.State.int t.rng t.customers);
    let lines =
      List.map
        (fun l ->
          let l = Array.copy l in
          l.(0) <- Value.Int key;
          l)
        o.lines
    in
    ( [
        ("orders", { Mv_engine.Ivm.ins = [ row ]; del = [] });
        ("lineitem", { Mv_engine.Ivm.ins = lines; del = [] });
      ],
      fun () ->
        t.next_key <- key + 1;
        Hashtbl.replace t.orders key { row; lines };
        Queue.add key t.live;
        t.insert_next <- false )
  end
  else
    ( [
        ("lineitem", { Mv_engine.Ivm.ins = []; del = o.lines });
        ("orders", { Mv_engine.Ivm.ins = []; del = [ o.row ] });
      ],
      fun () ->
        ignore (Queue.pop t.live);
        Hashtbl.remove t.orders oldest;
        t.insert_next <- true )

(* Every violated constraint over the database's base tables: primary and
   unique keys, foreign keys, CHECK and NOT NULL. Empty when all hold. *)
let audit db : string list =
  let schema = db.Db.schema in
  let table name = Db.table_exn db name in
  let key_of tbl cols =
    let idx = List.map (Mv_engine.Table.col_index_exn tbl) cols in
    fun (row : Value.t array) -> List.map (fun i -> row.(i)) idx
  in
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (def : Mv_catalog.Table_def.t) ->
      let tbl = table def.Mv_catalog.Table_def.name in
      List.iter
        (fun cols ->
          let key = key_of tbl cols and seen = Hashtbl.create 1024 in
          List.iter
            (fun row ->
              let k = key row in
              if Hashtbl.mem seen k then
                add "%s: duplicate key (%s)" def.name (String.concat "," cols)
              else Hashtbl.add seen k ())
            tbl.Mv_engine.Table.rows)
        def.unique_keys;
      if Mv_engine.Table.check_violations tbl <> [] then
        add "%s: CHECK violated" def.name;
      List.iter (add "%s: NULL in %s" def.name) (Mv_engine.Table.null_violations tbl))
    schema.Mv_catalog.Schema.tables;
  List.iter
    (fun (fk : Mv_catalog.Foreign_key.t) ->
      let child = table fk.from_tbl and parent = table fk.to_tbl in
      let pkey = key_of parent fk.to_cols and ckey = key_of child fk.from_cols in
      let keys = Hashtbl.create 4096 in
      List.iter (fun r -> Hashtbl.replace keys (pkey r) ()) parent.Mv_engine.Table.rows;
      List.iter
        (fun r ->
          let k = ckey r in
          if (not (List.exists Value.is_null k)) && not (Hashtbl.mem keys k) then
            add "%s -> %s: dangling reference" fk.from_tbl fk.to_tbl)
        child.Mv_engine.Table.rows)
    schema.Mv_catalog.Schema.foreign_keys;
  List.sort_uniq compare !problems
