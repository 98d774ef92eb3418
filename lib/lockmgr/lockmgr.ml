type mode = Shared | Exclusive

type hold_stats = {
  acquisitions : int;
  total_hold_time : float;
  max_hold_time : float;
}

module Ids = Simkernel.Ids
module Keys = Ids.Str_tbl

(* Grants and waits carry the transaction's id in the engine's name
   table; only the public views turn it back into a name. *)
type grant = { g_txn : int; mutable g_mode : mode; g_since : float }
type wait = { w_txn : int; w_mode : mode; w_granted : unit -> unit }

type entry = { mutable grants : grant list; mutable queue : wait list (* FIFO, head first *) }

(* Released hold time over all transactions.  All-float records are stored
   flat, so adding to them allocates nothing. *)
type totals = { mutable total : float; mutable longest : float }

type t = {
  engine : Simkernel.Engine.t;
  ids : Ids.t;
  table : entry Keys.t;  (* key -> its grants and waiters, while any *)
  txn_keys : string list Ids.Tbl.t; (* txn id -> keys it holds *)
  mutable held : float array;
      (* txn id -> its released hold time: a finished fact, so a flat
         array rather than a table entry per transaction *)
  mutable acquisitions : int;
  hold : totals;
  mutable nwaiting : int;
}

(* the tables' filler: no key's entry, never mutated *)
let no_entry = { grants = []; queue = [] }

let create engine =
  {
    engine;
    ids = Simkernel.Engine.ids engine;
    table = Keys.create ~dummy:no_entry;
    txn_keys = Ids.Tbl.create ~dummy:[];
    held = [||];
    acquisitions = 0;
    hold = { total = 0.0; longest = 0.0 };
    nwaiting = 0;
  }

(* The scans below are top-level recursive functions taking everything they
   compare as arguments, so a lookup builds no closure.  A miss is common on
   this path (a new key, a transaction's first lock), so misses neither
   allocate nor raise: [grant_of] answers a sentinel, and a table lookup
   answers the table's filler ([no_entry], or [[]] for keys). *)

let no_grant = { g_txn = -1; g_mode = Shared; g_since = 0.0 }

(* [txn]'s grant in [grants], else [no_grant]; a transaction holds at most
   one grant per key *)
let rec grant_of txn = function
  | [] -> no_grant
  | g :: rest -> if g.g_txn = txn then g else grant_of txn rest

(* every grant is [txn]'s own or, for a shared request, shared; for an
   exclusive request that means [txn] is the sole holder *)
let rec compatible mode txn = function
  | [] -> true
  | g :: rest ->
      (g.g_txn = txn || (mode = Shared && g.g_mode = Shared))
      && compatible mode txn rest

let rec without g = function
  | [] -> []
  | x :: rest -> if x == g then rest else x :: without g rest

let entry t key =
  let e = Keys.find t.table key in
  if e != no_entry then e
  else begin
    let e = { grants = []; queue = [] } in
    Keys.replace t.table key e;
    e
  end

let note_key t ~txn ~key =
  let keys = Ids.Tbl.find t.txn_keys txn in
  if not (List.mem key keys) then Ids.Tbl.replace t.txn_keys txn (key :: keys)

let grant_now t e ~txn ~key mode =
  let g = grant_of txn e.grants in
  if g != no_grant then begin
    (* re-acquire / upgrade: keep the original grant timestamp *)
    if mode = Exclusive then g.g_mode <- Exclusive
  end
  else begin
    e.grants <-
      { g_txn = txn; g_mode = mode; g_since = Simkernel.Engine.now t.engine }
      :: e.grants;
    t.acquisitions <- t.acquisitions + 1
  end;
  note_key t ~txn ~key

let can_grant e ~txn mode =
  let g = grant_of txn e.grants in
  if g == no_grant then compatible mode txn e.grants
  else
    (* held already: same/weaker always ok; upgrade needs sole ownership *)
    match (mode, g.g_mode) with
    | Shared, _ | Exclusive, Exclusive -> true
    | Exclusive, Shared -> compatible Exclusive txn e.grants

let try_acquire_id t ~txn ~key mode =
  let e = entry t key in
  (* respect FIFO fairness: a free-but-queued lock is not barged *)
  if e.queue <> [] && grant_of txn e.grants == no_grant then false
  else if can_grant e ~txn mode then begin
    grant_now t e ~txn ~key mode;
    true
  end
  else false

let try_acquire t ~txn ~key mode =
  try_acquire_id t ~txn:(Ids.intern t.ids txn) ~key mode

let acquire t ~txn ~key mode ~granted =
  let txn = Ids.intern t.ids txn in
  if try_acquire_id t ~txn ~key mode then granted ()
  else begin
    let e = entry t key in
    e.queue <- e.queue @ [ { w_txn = txn; w_mode = mode; w_granted = granted } ];
    t.nwaiting <- t.nwaiting + 1
  end

(* grant from the head of the queue while compatible *)
let rec pump t key e =
  match e.queue with
  | [] -> ()
  | w :: rest ->
      if can_grant e ~txn:w.w_txn w.w_mode then begin
        e.queue <- rest;
        t.nwaiting <- t.nwaiting - 1;
        grant_now t e ~txn:w.w_txn ~key w.w_mode;
        w.w_granted ();
        pump t key e
      end

(* [t.held] is read afresh at each release: a grant callback may run a
   nested [release_all] that grows the array. *)
let release_key t ~txn ~now key =
  let e = Keys.find t.table key in
  if e != no_entry then begin
    let g = grant_of txn e.grants in
    if g != no_grant then begin
      e.grants <- without g e.grants;
      let held = now -. g.g_since in
      t.hold.total <- t.hold.total +. held;
      t.held.(txn) <- t.held.(txn) +. held;
      if held > t.hold.longest then t.hold.longest <- held
    end;
    pump t key e;
    (* the last grant and the last waiter are gone: drop the entry so
       the table holds only keys in use.  A grant callback may already
       have dropped it (or re-created the key) re-entrantly, hence the
       identity check. *)
    if e.grants = [] && e.queue = [] && Keys.find t.table key == e then
      Keys.remove t.table key
  end

let rec release_keys t ~txn ~now = function
  | [] -> ()
  | key :: rest ->
      release_key t ~txn ~now key;
      release_keys t ~txn ~now rest

(* Room for [txn]'s hold time, doubling so growth is amortized. *)
let ensure_held t txn =
  let n = Array.length t.held in
  if txn >= n then begin
    let bigger = Array.make (max (txn + 1) (2 * n)) 0.0 in
    Array.blit t.held 0 bigger 0 n;
    t.held <- bigger
  end

let release_all t ~txn =
  let txn = Ids.find t.ids txn in
  match Ids.Tbl.find t.txn_keys txn with
  | [] -> ()
  | keys ->
      Ids.Tbl.remove t.txn_keys txn;
      ensure_held t txn;
      release_keys t ~txn ~now:(Simkernel.Engine.now t.engine) keys

let holding_txns t =
  Ids.Tbl.fold (fun txn _keys acc -> Ids.name t.ids txn :: acc) t.txn_keys []
  |> List.sort_uniq compare

let holds_any t ~txn = Ids.Tbl.mem t.txn_keys (Ids.find t.ids txn)

let clear t =
  (* Crash reclamation: the node lost its volatile state, so every grant and
     every queued request vanishes without waking continuations (the waiters
     died with the node).  Hold-time statistics for already-released locks
     survive; in-flight holds are simply forgotten. *)
  Keys.reset t.table;
  Ids.Tbl.reset t.txn_keys;
  t.nwaiting <- 0

let holds t ~txn ~key =
  let g = grant_of (Ids.find t.ids txn) (Keys.find t.table key).grants in
  if g == no_grant then None else Some g.g_mode

let holders t ~key =
  List.map (fun g -> (Ids.name t.ids g.g_txn, g.g_mode)) (Keys.find t.table key).grants

let waiting t = t.nwaiting

let wait_for_cycles t =
  (* edges: waiter -> each current holder of the key it waits on *)
  let edges = Hashtbl.create 16 in
  let name = Ids.name t.ids in
  Keys.iter
    (fun _key e ->
      List.iter
        (fun w ->
          List.iter
            (fun g ->
              if g.g_txn <> w.w_txn then
                Hashtbl.replace edges (name w.w_txn, name g.g_txn) ())
            e.grants)
        e.queue)
    t.table;
  let succs n =
    Hashtbl.fold (fun (a, b) () acc -> if a = n then b :: acc else acc) edges []
  in
  let nodes =
    Hashtbl.fold (fun (a, b) () acc -> a :: b :: acc) edges []
    |> List.sort_uniq compare
  in
  (* DFS cycle detection, reporting each cycle once by smallest member *)
  let cycles = ref [] in
  let report path n =
    let rec take acc = function
      | [] -> acc
      | x :: _ when x = n -> n :: acc
      | x :: rest -> take (x :: acc) rest
    in
    let cyc = take [] path in
    let rotated =
      let m = List.fold_left min (List.hd cyc) cyc in
      let rec rot = function
        | x :: rest when x <> m -> rot (rest @ [ x ])
        | l -> l
      in
      rot cyc
    in
    if not (List.mem rotated !cycles) then cycles := rotated :: !cycles
  in
  let visiting = Hashtbl.create 16 in
  let done_ = Hashtbl.create 16 in
  let rec dfs path n =
    if Hashtbl.mem done_ n then ()
    else if Hashtbl.mem visiting n then report path n
    else begin
      Hashtbl.replace visiting n ();
      List.iter (dfs (n :: path)) (succs n);
      Hashtbl.remove visiting n;
      Hashtbl.replace done_ n ()
    end
  in
  List.iter (dfs []) nodes;
  !cycles

let stats t =
  {
    acquisitions = t.acquisitions;
    total_hold_time = t.hold.total;
    max_hold_time = t.hold.longest;
  }

let txn_lock_time t ~txn =
  let txn = Ids.find t.ids txn in
  if txn >= 0 && txn < Array.length t.held then t.held.(txn) else 0.0

let reset_stats t =
  t.acquisitions <- 0;
  t.hold.total <- 0.0;
  t.hold.longest <- 0.0;
  t.held <- [||]
