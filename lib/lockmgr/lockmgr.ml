type mode = Shared | Exclusive

type hold_stats = {
  acquisitions : int;
  total_hold_time : float;
  max_hold_time : float;
}

type grant = { g_txn : string; mutable g_mode : mode; g_since : float }
type wait = { w_txn : string; w_mode : mode; w_granted : unit -> unit }

type entry = { mutable grants : grant list; mutable queue : wait list (* FIFO, head first *) }

type t = {
  engine : Simkernel.Engine.t;
  table : (string, entry) Hashtbl.t;
  txn_keys : (string, string list ref) Hashtbl.t; (* txn -> keys it holds *)
  txn_time : (string, float ref) Hashtbl.t; (* accumulated released hold time *)
  mutable acquisitions : int;
  mutable total_hold : float;
  mutable max_hold : float;
  mutable nwaiting : int;
}

let create engine =
  {
    engine;
    table = Hashtbl.create 64;
    txn_keys = Hashtbl.create 16;
    txn_time = Hashtbl.create 16;
    acquisitions = 0;
    total_hold = 0.0;
    max_hold = 0.0;
    nwaiting = 0;
  }

let entry t key =
  match Hashtbl.find_opt t.table key with
  | Some e -> e
  | None ->
      let e = { grants = []; queue = [] } in
      Hashtbl.replace t.table key e;
      e

let compatible mode grants ~txn =
  List.for_all
    (fun g ->
      g.g_txn = txn
      || match (mode, g.g_mode) with
         | Shared, Shared -> true
         | Shared, Exclusive | Exclusive, Shared | Exclusive, Exclusive -> false)
    grants

let note_key t ~txn ~key =
  let keys =
    match Hashtbl.find_opt t.txn_keys txn with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace t.txn_keys txn l;
        l
  in
  if not (List.mem key !keys) then keys := key :: !keys

let grant_now t e ~txn ~key mode =
  (match List.find_opt (fun g -> g.g_txn = txn) e.grants with
  | Some g ->
      (* re-acquire / upgrade: keep the original grant timestamp *)
      if mode = Exclusive then g.g_mode <- Exclusive
  | None ->
      e.grants <-
        { g_txn = txn; g_mode = mode; g_since = Simkernel.Engine.now t.engine }
        :: e.grants;
      t.acquisitions <- t.acquisitions + 1);
  note_key t ~txn ~key

let can_grant e ~txn mode =
  match List.find_opt (fun g -> g.g_txn = txn) e.grants with
  | Some g ->
      (* held already: same/weaker always ok; upgrade needs sole ownership *)
      (match (mode, g.g_mode) with
      | Shared, _ | Exclusive, Exclusive -> true
      | Exclusive, Shared -> List.for_all (fun o -> o.g_txn = txn) e.grants)
  | None -> compatible mode e.grants ~txn

let try_acquire t ~txn ~key mode =
  let e = entry t key in
  (* respect FIFO fairness: a free-but-queued lock is not barged *)
  if e.queue <> [] && not (List.exists (fun g -> g.g_txn = txn) e.grants) then false
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

let pump t key e =
  (* grant from the head of the queue while compatible *)
  let rec loop () =
    match e.queue with
    | [] -> ()
    | w :: rest ->
        if can_grant e ~txn:w.w_txn w.w_mode then begin
          e.queue <- rest;
          t.nwaiting <- t.nwaiting - 1;
          grant_now t e ~txn:w.w_txn ~key w.w_mode;
          w.w_granted ();
          loop ()
        end
  in
  loop ()

let release_all t ~txn =
  match Hashtbl.find_opt t.txn_keys txn with
  | None -> ()
  | Some keys ->
      Hashtbl.remove t.txn_keys txn;
      let now = Simkernel.Engine.now t.engine in
      let acc =
        match Hashtbl.find_opt t.txn_time txn with
        | Some r -> r
        | None ->
            let r = ref 0.0 in
            Hashtbl.replace t.txn_time txn r;
            r
      in
      let release_key key =
        match Hashtbl.find_opt t.table key with
        | None -> ()
        | Some e ->
            let mine, others = List.partition (fun g -> g.g_txn = txn) e.grants in
            e.grants <- others;
            let count_hold g =
              let held = now -. g.g_since in
              t.total_hold <- t.total_hold +. held;
              acc := !acc +. held;
              if held > t.max_hold then t.max_hold <- held
            in
            List.iter count_hold mine;
            pump t key e;
            (* the last grant and the last waiter are gone: drop the entry
               so the table holds only keys in use.  A grant callback may
               already have dropped it (or re-created the key) re-entrantly,
               hence the identity check. *)
            if e.grants = [] && e.queue = [] then
              match Hashtbl.find t.table key with
              | e' when e' == e -> Hashtbl.remove t.table key
              | _ | (exception Not_found) -> ()
      in
      List.iter release_key !keys

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
      Option.map (fun g -> g.g_mode) (List.find_opt (fun g -> g.g_txn = txn) e.grants)

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
    total_hold_time = t.total_hold;
    max_hold_time = t.max_hold;
  }

let txn_lock_time t ~txn =
  match Hashtbl.find_opt t.txn_time txn with Some r -> !r | None -> 0.0

let reset_stats t =
  t.acquisitions <- 0;
  t.total_hold <- 0.0;
  t.max_hold <- 0.0;
  Hashtbl.reset t.txn_time
