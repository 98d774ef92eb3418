(** Dense integer ids for the names one simulation world uses.

    The first time any layer of a world sees a name (a transaction such
    as ["mx-21"]), {!intern} gives it the next id, starting at 0.  Every
    layer then keys its per-transaction state by that int instead of
    hashing the string again.  One table belongs to one world: the
    {!Engine} owns it and {!Engine.reset} clears it, so a recycled engine
    starts from id 0 and no table is shared between domains.

    Lookups keep a one-entry cache keyed on physical equality ([==]).  A
    driver that builds each name once and passes that same string through
    every payload, log record and call finds the repeated lookups of one
    event without hashing; any other string falls back to the table. *)

type t

val create : unit -> t

val intern : t -> string -> int
(** The id of [name], assigning the next one on first sight. *)

val find : t -> string -> int
(** The id of [name], or [-1] if it was never interned.  Never inserts. *)

val name : t -> int -> string
(** The name an id was given to.  Raises [Invalid_argument] on an id this
    table has not assigned. *)

val count : t -> int
(** Ids assigned so far; they are [0 .. count t - 1]. *)

val clear : t -> unit
(** Forget every name, and the cached one, keeping the table's capacity. *)

(** A flat hash table: keys and values in two arrays, no block per entry.
    A table is made with a [dummy] value, the filler of its empty slots,
    so binding a key in a table that has room allocates nothing.  Tables
    start at 4 slots, double past 3/4 load and keep their capacity on
    {!reset}.  Iteration runs in slot order, which is neither insertion
    nor key order: a caller whose listing reaches output sorts it. *)
module type S = sig
  type key
  type 'a t

  val create : dummy:'a -> 'a t

  val length : 'a t -> int

  val find : 'a t -> key -> 'a
  (** The value bound to the key, or the table's [dummy] when none is.
      Never raises and never allocates; a table that may bind [dummy]
      itself tells presence with {!mem}. *)

  val mem : 'a t -> key -> bool

  val replace : 'a t -> key -> 'a -> unit
  (** Bind the key, replacing any binding it had. *)

  val remove : 'a t -> key -> unit
  (** Unbind the key, if bound.  Its slot gets the [dummy] back, so the
      table keeps no removed value alive. *)

  val reset : 'a t -> unit
  (** Unbind every key, keeping the capacity. *)

  val iter : (key -> 'a -> unit) -> 'a t -> unit
  val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
end

module Tbl : S with type key = int
(** Tables keyed by id.  A key's probe starts at the id itself: ids are
    dense, so they spread over the slots without mixing.  The price is on
    removal: ids are also removed about oldest first, so a table's live
    ids sit in one run of slots, and {!S.remove} walks every newer live
    id to the run's free end, hashing each.  Its cost grows with the
    number of live ids: cycling a 16-id sliding window (bind, find,
    remove) took 56-78 ns per operation, against 14-16 ns for
    [Hashtbl.Make] (Intel Xeon, OCaml 5.1).  Any int but [min_int],
    which marks a free slot, is a key; a lookup of [-1] (a name never
    interned) finds nothing. *)

module Str_tbl : S with type key = string
(** Tables keyed by string, hashed by [String.hash].  A free slot holds a
    private string compared by [==], so every string is a key. *)
