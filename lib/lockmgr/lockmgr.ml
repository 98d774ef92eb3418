type mode = Shared | Exclusive

type hold_stats = {
  acquisitions : int;
  total_hold_time : float;
  max_hold_time : float;
}

type grant = { g_txn : string; mutable g_mode : mode; g_since : float }
type wait = { w_txn : string; w_mode : mode; w_granted : unit -> unit }

type entry = { mutable grants : grant list; mutable queue : wait list (* FIFO, head first *) }

(* Released hold time.  All-float records are stored flat, so adding to
   them allocates nothing. *)
type tally = { mutable held : float }  (* one transaction's *)
type totals = { mutable total : float; mutable longest : float }

type t = {
  engine : Simkernel.Engine.t;
  table : (string, entry) Hashtbl.t;
  txn_keys : (string, string list ref) Hashtbl.t; (* txn -> keys it holds *)
  txn_time : (string, tally) Hashtbl.t; (* accumulated released hold time *)
  mutable acquisitions : int;
  hold : totals;
  mutable nwaiting : int;
}

let create engine =
  {
    engine;
    table = Hashtbl.create 64;
    txn_keys = Hashtbl.create 16;
    txn_time = Hashtbl.create 16;
    acquisitions = 0;
    hold = { total = 0.0; longest = 0.0 };
    nwaiting = 0;
  }

(* The scans below are top-level recursive functions taking everything they
   compare as arguments, so a lookup builds no closure.  A miss is common on
   this path (a new key, a transaction's first lock), so misses neither
   allocate nor raise: [grant_of] answers a sentinel, and a table lookup
   that usually misses uses [find_opt], whose [None] is free. *)

let no_grant = { g_txn = ""; g_mode = Shared; g_since = 0.0 }

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
  match Hashtbl.find_opt t.table key with
  | Some e -> e
  | None ->
      let e = { grants = []; queue = [] } in
      Hashtbl.replace t.table key e;
      e

let note_key t ~txn ~key =
  match Hashtbl.find_opt t.txn_keys txn with
  | Some keys -> if not (List.mem key !keys) then keys := key :: !keys
  | None -> Hashtbl.replace t.txn_keys txn (ref [ key ])

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

let try_acquire t ~txn ~key mode =
  let e = entry t key in
  (* respect FIFO fairness: a free-but-queued lock is not barged *)
  if e.queue <> [] && grant_of txn e.grants == no_grant then false
  else if can_grant e ~txn mode then begin
    grant_now t e ~txn ~key mode;
    true
  end
  else false

let acquire t ~txn ~key mode ~granted =
  if try_acquire t ~txn ~key mode then granted ()
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

let release_key t ~txn ~now tally key =
  match Hashtbl.find t.table key with
  | exception Not_found -> ()
  | e ->
      let g = grant_of txn e.grants in
      if g != no_grant then begin
        e.grants <- without g e.grants;
        let held = now -. g.g_since in
        t.hold.total <- t.hold.total +. held;
        tally.held <- tally.held +. held;
        if held > t.hold.longest then t.hold.longest <- held
      end;
      pump t key e;
      (* the last grant and the last waiter are gone: drop the entry so
         the table holds only keys in use.  A grant callback may already
         have dropped it (or re-created the key) re-entrantly, hence the
         identity check. *)
      if e.grants = [] && e.queue = [] then
        match Hashtbl.find t.table key with
        | e' when e' == e -> Hashtbl.remove t.table key
        | _ | (exception Not_found) -> ()

let rec release_keys t ~txn ~now tally = function
  | [] -> ()
  | key :: rest ->
      release_key t ~txn ~now tally key;
      release_keys t ~txn ~now tally rest

let release_all t ~txn =
  match Hashtbl.find t.txn_keys txn with
  | exception Not_found -> ()
  | keys ->
      Hashtbl.remove t.txn_keys txn;
      let tally =
        match Hashtbl.find_opt t.txn_time txn with
        | Some r -> r
        | None ->
            let r = { held = 0.0 } in
            Hashtbl.replace t.txn_time txn r;
            r
      in
      release_keys t ~txn ~now:(Simkernel.Engine.now t.engine) tally !keys

let holding_txns t =
  Hashtbl.fold (fun txn _keys acc -> txn :: acc) t.txn_keys []
  |> List.sort_uniq compare

let holds_any t ~txn = Hashtbl.mem t.txn_keys txn

let clear t =
  (* Crash reclamation: the node lost its volatile state, so every grant and
     every queued request vanishes without waking continuations (the waiters
     died with the node).  Hold-time statistics for already-released locks
     survive; in-flight holds are simply forgotten. *)
  Hashtbl.reset t.table;
  Hashtbl.reset t.txn_keys;
  t.nwaiting <- 0

let holds t ~txn ~key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some e ->
      let g = grant_of txn e.grants in
      if g == no_grant then None else Some g.g_mode

let holders t ~key =
  match Hashtbl.find_opt t.table key with
  | None -> []
  | Some e -> List.map (fun g -> (g.g_txn, g.g_mode)) e.grants

let waiting t = t.nwaiting

let wait_for_cycles t =
  (* edges: waiter -> each current holder of the key it waits on *)
  let edges = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _key e ->
      List.iter
        (fun w ->
          List.iter
            (fun g ->
              if g.g_txn <> w.w_txn then
                Hashtbl.replace edges (w.w_txn, g.g_txn) ())
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
  match Hashtbl.find t.txn_time txn with
  | r -> r.held
  | exception Not_found -> 0.0

let reset_stats t =
  t.acquisitions <- 0;
  t.hold.total <- 0.0;
  t.hold.longest <- 0.0;
  Hashtbl.reset t.txn_time
