(* Open addressing with linear probing.  Keys and values sit in two
   arrays of a power-of-two length; an empty slot holds [K.empty] and the
   table's [dummy].  The probe and shift loops are top-level functions
   that take what they compare, so no operation builds a closure. *)
module type S = sig
  type key
  type 'a t

  val create : dummy:'a -> 'a t
  val length : 'a t -> int
  val find : 'a t -> key -> 'a
  val mem : 'a t -> key -> bool
  val replace : 'a t -> key -> 'a -> unit
  val remove : 'a t -> key -> unit
  val reset : 'a t -> unit
  val iter : (key -> 'a -> unit) -> 'a t -> unit
  val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
end

module Flat (K : sig
  type t

  val empty : t  (* marks a free slot; compared by [==], never looked up *)
  val equal : t -> t -> bool
  val hash : t -> int
end) : S with type key = K.t = struct
  type key = K.t

  type 'a t = {
    mutable keys : K.t array;
    mutable vals : 'a array;
    mutable size : int;
    dummy : 'a;
  }

  let start = 4

  let create ~dummy =
    { keys = Array.make start K.empty; vals = Array.make start dummy; size = 0; dummy }

  let length t = t.size

  (* the slot holding [key], else the free slot that ends its run *)
  let rec probe keys mask key i =
    let k = Array.unsafe_get keys i in
    if k == key || k == K.empty || K.equal k key then i
    else probe keys mask key ((i + 1) land mask)

  let slot keys key =
    let mask = Array.length keys - 1 in
    probe keys mask key (K.hash key land mask)

  let find t key =
    let i = slot t.keys key in
    if Array.unsafe_get t.keys i == K.empty then t.dummy else Array.unsafe_get t.vals i

  let mem t key = Array.unsafe_get t.keys (slot t.keys key) != K.empty

  (* the first free slot from [key]'s home: a key being moved is absent *)
  let rec free keys mask i =
    if Array.unsafe_get keys i == K.empty then i else free keys mask ((i + 1) land mask)

  let rec move keys vals into i =
    if i < Array.length keys then begin
      let k = Array.unsafe_get keys i in
      if k != K.empty then begin
        let mask = Array.length into.keys - 1 in
        let j = free into.keys mask (K.hash k land mask) in
        Array.unsafe_set into.keys j k;
        Array.unsafe_set into.vals j (Array.unsafe_get vals i)
      end;
      move keys vals into (i + 1)
    end

  let grow t =
    let keys = t.keys and vals = t.vals in
    let n = 2 * Array.length keys in
    t.keys <- Array.make n K.empty;
    t.vals <- Array.make n t.dummy;
    move keys vals t 0

  let replace t key v =
    let i = slot t.keys key in
    if Array.unsafe_get t.keys i != K.empty then Array.unsafe_set t.vals i v
    else if 4 * (t.size + 1) <= 3 * Array.length t.keys then begin
      Array.unsafe_set t.keys i key;
      Array.unsafe_set t.vals i v;
      t.size <- t.size + 1
    end
    else begin
      grow t;
      let i = slot t.keys key in
      Array.unsafe_set t.keys i key;
      Array.unsafe_set t.vals i v;
      t.size <- t.size + 1
    end

  (* Backward-shift deletion: [hole] is free; the next entry of the run
     that may live there (its home is not after [hole] on the way to its
     slot) moves back into it, and its slot is the next hole.  The run's
     free end takes the filler, so a removed value is not kept alive. *)
  let rec shift t keys vals mask hole j =
    let k = Array.unsafe_get keys j in
    if k == K.empty then begin
      Array.unsafe_set keys hole K.empty;
      Array.unsafe_set vals hole t.dummy
    end
    else if (j - (K.hash k land mask)) land mask >= (j - hole) land mask then begin
      Array.unsafe_set keys hole k;
      Array.unsafe_set vals hole (Array.unsafe_get vals j);
      shift t keys vals mask j ((j + 1) land mask)
    end
    else shift t keys vals mask hole ((j + 1) land mask)

  let remove t key =
    let keys = t.keys in
    let i = slot keys key in
    if Array.unsafe_get keys i != K.empty then begin
      t.size <- t.size - 1;
      let mask = Array.length keys - 1 in
      shift t keys t.vals mask i ((i + 1) land mask)
    end

  let reset t =
    if t.size > 0 then begin
      Array.fill t.keys 0 (Array.length t.keys) K.empty;
      Array.fill t.vals 0 (Array.length t.vals) t.dummy;
      t.size <- 0
    end

  let rec iter_from f keys vals i =
    if i < Array.length keys then begin
      let k = Array.unsafe_get keys i in
      if k != K.empty then f k (Array.unsafe_get vals i);
      iter_from f keys vals (i + 1)
    end

  let iter f t = iter_from f t.keys t.vals 0

  let rec fold_from f keys vals i acc =
    if i = Array.length keys then acc
    else
      let k = Array.unsafe_get keys i in
      fold_from f keys vals (i + 1)
        (if k == K.empty then acc else f k (Array.unsafe_get vals i) acc)

  let fold f t acc = fold_from f t.keys t.vals 0 acc
end

module Tbl = Flat (struct
  type t = int

  let empty = min_int
  let equal = Int.equal
  let hash id = id
end)

module Str_tbl = Flat (struct
  type t = string

  let empty = String.make 1 '\000'
  let equal = String.equal
  let hash = String.hash
end)

type t = {
  table : int Str_tbl.t;  (* name -> id; -1 for a name never interned *)
  mutable names : string array;  (* id -> name; [count] entries used *)
  mutable count : int;
  (* one-entry cache: the string last looked up or interned, and its id *)
  mutable last : string;
  mutable last_id : int;
}

(* A string no caller holds, so the empty cache never matches. *)
let no_name () = String.make 1 '\000'

let create () =
  {
    table = Str_tbl.create ~dummy:(-1);
    names = Array.make 64 "";
    count = 0;
    last = no_name ();
    last_id = -1;
  }

let remember t name id =
  t.last <- name;
  t.last_id <- id;
  id

let intern t name =
  if name == t.last then t.last_id
  else
    let id = Str_tbl.find t.table name in
    if id >= 0 then remember t name id
    else begin
      let id = t.count in
      if id = Array.length t.names then begin
        let bigger = Array.make (2 * id) "" in
        Array.blit t.names 0 bigger 0 id;
        t.names <- bigger
      end;
      t.names.(id) <- name;
      t.count <- id + 1;
      Str_tbl.replace t.table name id;
      remember t name id
    end

let find t name =
  if name == t.last then t.last_id
  else
    let id = Str_tbl.find t.table name in
    if id >= 0 then remember t name id else -1

let name t id =
  if id < 0 || id >= t.count then invalid_arg "Ids.name: unassigned id";
  t.names.(id)

let count t = t.count

let clear t =
  Str_tbl.reset t.table;
  Array.fill t.names 0 t.count "";
  t.count <- 0;
  t.last <- no_name ();
  t.last_id <- -1
