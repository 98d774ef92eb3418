module Names = Hashtbl.Make (String)

type t = {
  table : int Names.t;
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
    table = Names.create 64;
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
    match Names.find t.table name with
    | id -> remember t name id
    | exception Not_found ->
        let id = t.count in
        if id = Array.length t.names then begin
          let bigger = Array.make (2 * id) "" in
          Array.blit t.names 0 bigger 0 id;
          t.names <- bigger
        end;
        t.names.(id) <- name;
        t.count <- id + 1;
        Names.add t.table name id;
        remember t name id

let find t name =
  if name == t.last then t.last_id
  else
    match Names.find t.table name with
    | id -> remember t name id
    | exception Not_found -> -1

let name t id =
  if id < 0 || id >= t.count then invalid_arg "Ids.name: unassigned id";
  t.names.(id)

let count t = t.count

let clear t =
  Names.clear t.table;
  Array.fill t.names 0 t.count "";
  t.count <- 0;
  t.last <- no_name ();
  t.last_id <- -1

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash id = id
end)
