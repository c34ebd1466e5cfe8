(** The lattice index of section 4.1: keys are sets organized in a DAG by
    the subset partial order, supporting pruned subset/superset search and
    any monotone predicate traversal. Keys are interned bitsets
    ({!Mv_util.Bitset}).

    A lattice is an immutable value: {!add} and {!remove} return a new
    lattice and leave their argument untouched, so a reader holding one
    version may search it while writers build the next. Node ids are
    dense — always exactly [0 .. size - 1] — because a removal moves the
    last node into the freed slot; the per-search scratch therefore never
    outgrows the largest live lattice, however long the churn.

    Searches deduplicate visited nodes with per-search scratch state
    (pooled per OCaml domain), so concurrent searches of one lattice from
    many domains are safe, as are reentrant searches (a predicate
    re-entering the lattice). *)

module Bitset = Mv_util.Bitset

type 'a node = {
  id : int;  (** position in the lattice, [0 .. size - 1] *)
  key : Bitset.t;
  payload : 'a;
  supers : int list;  (** ids of the minimal strict supersets *)
  subs : int list;  (** ids of the maximal strict subsets *)
}

type 'a t

val empty : 'a t

val size : 'a t -> int

val nodes : 'a t -> 'a node list

val node : 'a t -> int -> 'a node
(** The node with this id. @raise Invalid_argument when out of range. *)

val tops : 'a t -> 'a node list
(** Nodes without supersets. *)

val roots : 'a t -> 'a node list
(** Nodes without subsets. *)

val find_exact : 'a t -> Bitset.t -> 'a node option

val search :
  'a t -> dir:[ `Down | `Up ] -> pred:(Bitset.t -> bool) -> 'a node list
(** Pruned traversal. [`Down] starts at the tops and follows subset
    pointers — correct when [pred] failing on a key implies it fails on
    every subset. [`Up] starts at the roots and follows superset pointers —
    correct when failure propagates to supersets. *)

val supersets_of : 'a t -> Bitset.t -> 'a node list

val subsets_of : 'a t -> Bitset.t -> 'a node list

val add : 'a t -> Bitset.t -> 'a -> 'a t
(** The lattice with [key] bound to the payload: a new key is linked
    between its maximal subsets and minimal supersets (edges made
    transitive are dropped); an existing key only has its payload
    replaced. Copies this one lattice, never the payloads. *)

val remove : 'a t -> Bitset.t -> 'a t
(** The lattice without [key] (the argument itself when absent): its
    subsets are reconnected to its supersets where no other path exists,
    and the last node takes over its id. *)
