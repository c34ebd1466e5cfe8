(** Global string interner: string ⇄ dense int, one table per domain.

    Filter-tree keys draw from a few small vocabularies (table names,
    qualified column names, predicate/expression templates). Interning each
    vocabulary in its own domain keeps the assigned ids dense, so the
    bitsets built over them ({!Bitset}) stay a handful of words wide and
    the lattice subset tests become word-level AND/OR operations instead of
    string comparisons.

    Domains are append-only: ids are never reused or invalidated, so a
    bitset built early remains valid (shorter, zero-extended) as the domain
    grows.

    Concurrency: every mutation runs under the domain's mutex, so
    concurrent [intern] calls from several OCaml domains always agree (same
    string ⇒ same id, no lost entries). After {!freeze}, lookups of already
    interned strings are lock-free: freezing publishes an immutable
    snapshot of the table through an [Atomic.t], and reads that hit the
    snapshot never touch the lock. Strings first seen after the freeze
    still intern correctly — they take the mutex-guarded slow path — so a
    freeze is a performance statement ("the vocabulary is essentially
    complete"), not a functional restriction. *)

type frozen = {
  f_table : (string, int) Hashtbl.t;  (** never mutated after publication *)
  f_names : string array;
  f_count : int;
}

type domain = {
  domain_name : string;
  lock : Mutex.t;
  table : (string, int) Hashtbl.t;  (** the full table; mutated under lock *)
  mutable names : string array;  (** id -> string; length >= count *)
  mutable count : int;
  frozen : frozen option Atomic.t;
      (** lock-free read snapshot; [Atomic] for publication safety *)
}

let create domain_name =
  {
    domain_name;
    lock = Mutex.create ();
    table = Hashtbl.create 64;
    names = Array.make 64 "";
    count = 0;
    frozen = Atomic.make None;
  }

let domain_name d = d.domain_name

let locked d f = Mutex.protect d.lock f

let size d = locked d (fun () -> d.count)

let intern_locked d s =
  match Hashtbl.find_opt d.table s with
  | Some id -> id
  | None ->
      let id = d.count in
      if id = Array.length d.names then begin
        let names = Array.make (2 * id) "" in
        Array.blit d.names 0 names 0 id;
        d.names <- names
      end;
      d.names.(id) <- s;
      d.count <- id + 1;
      Hashtbl.add d.table s id;
      id

let intern d s =
  match Atomic.get d.frozen with
  | Some f -> (
      match Hashtbl.find_opt f.f_table s with
      | Some id -> id
      | None -> locked d (fun () -> intern_locked d s))
  | None -> locked d (fun () -> intern_locked d s)

let find d s =
  match Atomic.get d.frozen with
  | Some f -> (
      match Hashtbl.find_opt f.f_table s with
      | Some id -> Some id
      | None -> locked d (fun () -> Hashtbl.find_opt d.table s))
  | None -> locked d (fun () -> Hashtbl.find_opt d.table s)

let name d id =
  let fast =
    match Atomic.get d.frozen with
    | Some f when id >= 0 && id < f.f_count -> Some f.f_names.(id)
    | _ -> None
  in
  match fast with
  | Some s -> s
  | None ->
      locked d (fun () ->
          if id < 0 || id >= d.count then
            invalid_arg
              (Printf.sprintf
                 "Symbol.name: id %d out of range for domain %s (size %d)" id
                 d.domain_name d.count);
          d.names.(id))

(* Publish an immutable snapshot of the current table. Idempotent: a later
   freeze replaces the snapshot with a larger one (useful after further
   single-threaded growth), and one that finds nothing new since the last
   returns without copying. The snapshot is built under the lock, so it is
   internally consistent; [Atomic.set] makes its interior visible to other
   domains before the pointer is. *)
let freeze d =
  locked d (fun () ->
      match Atomic.get d.frozen with
      | Some f when f.f_count = d.count -> ()
      | _ ->
          Atomic.set d.frozen
            (Some
               {
                 f_table = Hashtbl.copy d.table;
                 f_names = Array.sub d.names 0 d.count;
                 f_count = d.count;
               }))

let frozen d = Atomic.get d.frozen

let is_frozen d = Atomic.get d.frozen <> None

let frozen_size d =
  match Atomic.get d.frozen with Some f -> f.f_count | None -> 0
