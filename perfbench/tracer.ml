(* Monotonic clock, in-memory spans and the order statistics the report
   prints.

   A span is recorded around each call the benchmark makes into a layer
   (parse, optimize, execute, maintain, view DDL) and around each whole
   operation. Spans live in flat arrays while the run lasts and are
   written out once it ends. With tracing off, [span] is a plain call. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Layer and operation names; a span stores the index. *)
let names =
  [|
    "op.read"; "op.write"; "op.ddl"; "parse"; "optimize"; "exec"; "ivm";
    "ddl.drop"; "ddl.add";
  |]

let op_read = 0
let op_write = 1
let op_ddl = 2
let parse = 3
let optimize = 4
let exec = 5
let ivm = 6
let ddl_drop = 7
let ddl_add = 8

type t = {
  mutable on : bool;
  mutable n : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable op : int array;
  mutable words : float array;
  mutable cur : int;  (** innermost open span, -1 at top level *)
  mutable op_id : int;
}

let create () =
  {
    on = false;
    n = 0;
    name = [||];
    start = [||];
    stop = [||];
    parent = [||];
    op = [||];
    words = [||];
    cur = -1;
    op_id = 0;
  }

(* Start recording, with room for [capacity] spans: an operation records
   at most four (itself, parse, optimize, execute). *)
let enable t ~capacity =
  t.on <- true;
  t.n <- 0;
  t.name <- Array.make capacity 0;
  t.start <- Array.make capacity 0;
  t.stop <- Array.make capacity 0;
  t.parent <- Array.make capacity (-1);
  t.op <- Array.make capacity 0;
  t.words <- Array.make capacity 0.0

let span t name f =
  if not t.on then f ()
  else begin
    let i = t.n in
    t.n <- i + 1;
    t.name.(i) <- name;
    t.parent.(i) <- t.cur;
    t.op.(i) <- t.op_id;
    t.cur <- i;
    let w0 = Gc.minor_words () in
    t.start.(i) <- now_ns ();
    let close () =
      t.stop.(i) <- now_ns ();
      t.words.(i) <- Gc.minor_words () -. w0;
      t.cur <- t.parent.(i)
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* Chrome trace-event JSON: one complete event per span, times in us. *)
let write_json t path =
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for i = 0 to t.n - 1 do
    if i > 0 then output_string oc ",\n";
    Printf.fprintf oc
      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\
       \"dur\":%.3f,\"args\":{\"op\":%d,\"parent\":%d,\"minor_words\":%.0f}}"
      names.(t.name.(i))
      (float_of_int t.start.(i) /. 1e3)
      (float_of_int (t.stop.(i) - t.start.(i)) /. 1e3)
      t.op.(i) t.parent.(i) t.words.(i)
  done;
  output_string oc "]}\n";
  close_out oc

(* Per-name totals over the recorded spans. *)
type layer = {
  count : int;
  total_ns : int;
  total_words : float;
  durations : float array;  (** ns, one per span *)
}

let layer t name =
  let ds = ref [] and total = ref 0 and words = ref 0.0 in
  for i = 0 to t.n - 1 do
    if t.name.(i) = name then begin
      let d = t.stop.(i) - t.start.(i) in
      ds := float_of_int d :: !ds;
      total := !total + d;
      words := !words +. t.words.(i)
    end
  done;
  let durations = Array.of_list !ds in
  {
    count = Array.length durations;
    total_ns = !total;
    total_words = !words;
    durations;
  }

(* Time inside top-level operation spans that no child span covers. Layer
   spans never overlap their siblings, so the covered part is the sum of
   the direct children's durations. *)
let residue_ns t =
  let r = ref 0 in
  for i = 0 to t.n - 1 do
    let d = t.stop.(i) - t.start.(i) in
    if t.parent.(i) < 0 then r := !r + d
    else if t.parent.(t.parent.(i)) < 0 then r := !r - d
  done;
  !r

(* Linear interpolation between closest ranks (the default of most
   statistics packages). [xs] need not be sorted; it is left untouched. *)
let quantile xs p =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))
  end
