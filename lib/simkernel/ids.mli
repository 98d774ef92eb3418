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

module Tbl : Hashtbl.S with type key = int
(** Hash tables keyed by id.  The hash is the id itself: ids are dense, so
    they spread over the buckets without mixing, and a lookup neither
    hashes a string nor calls the polymorphic compare.  Iteration runs in
    bucket order, not name order: a caller that lists names sorts them. *)
