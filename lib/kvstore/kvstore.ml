type vote = Vote_yes | Vote_read_only | Vote_no

type op = Put of string * string | Delete of string

type t = {
  engine : Simkernel.Engine.t;
  rm_name : string;
  lock_prefix : string;  (* [rm_name ^ "/"]: every lock name starts so *)
  log : Wal.Log.t;
  lock_table : Lockmgr.t;
  reliable : bool;
  store : (string, string) Hashtbl.t; (* committed values *)
  wsets : (string, op list ref) Hashtbl.t; (* txn -> reversed op list *)
  mutable in_doubt_txns : string list;
  lost_txns : (string, unit) Hashtbl.t;
      (* txns whose unprepared updates were wiped by a crash: a later
         Prepare must vote NO, not read-only *)
}

let create engine ~name ~wal ?locks ?(reliable = false) () =
  let lock_table = match locks with Some l -> l | None -> Lockmgr.create engine in
  {
    engine;
    rm_name = name;
    lock_prefix = name ^ "/";
    log = wal;
    lock_table;
    reliable;
    store = Hashtbl.create 64;
    wsets = Hashtbl.create 8;
    in_doubt_txns = [];
    lost_txns = Hashtbl.create 4;
  }

let name t = t.rm_name
let wal t = t.log
let locks t = t.lock_table
let is_reliable t = t.reliable

(* --- undo/redo payload encoding (length-prefixed, crash-safe) ------------ *)

let encode_op = function
  | Put (k, v) ->
      String.concat ""
        [ "P"; string_of_int (String.length k); ":"; k;
          string_of_int (String.length v); ":"; v ]
  | Delete k -> String.concat "" [ "D"; string_of_int (String.length k); ":"; k ]

let decode_field s pos =
  let colon = String.index_from s pos ':' in
  let len = int_of_string (String.sub s pos (colon - pos)) in
  (String.sub s (colon + 1) len, colon + 1 + len)

let decode_op s =
  match s.[0] with
  | 'P' ->
      let k, pos = decode_field s 1 in
      let v, _ = decode_field s pos in
      Put (k, v)
  | 'D' ->
      let k, _ = decode_field s 1 in
      Delete k
  | _ -> invalid_arg "kvstore: corrupt rm-update payload"

(* --- transaction-time operations ----------------------------------------- *)

let wset t txn =
  match Hashtbl.find_opt t.wsets txn with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.replace t.wsets txn r;
      r

let lock_name t key = t.lock_prefix ^ key

let can_lock t ~txn ~key mode =
  match Lockmgr.holds t.lock_table ~txn ~key:(lock_name t key) with
  | Some Lockmgr.Exclusive -> true
  | Some Lockmgr.Shared when mode = Lockmgr.Shared -> true
  | Some Lockmgr.Shared | None ->
      (* probe without acquiring: only exact state check available is
         try_acquire, so emulate by checking current holders *)
      let holders = Lockmgr.holders t.lock_table ~key:(lock_name t key) in
      List.for_all
        (fun (h, m) ->
          h = txn
          || match (mode, m) with
             | Lockmgr.Shared, Lockmgr.Shared -> true
             | _ -> false)
        holders

let uncommitted_view t ~txn key =
  (* newest op for [key] in the txn's write set, if any *)
  let ops = match Hashtbl.find_opt t.wsets txn with Some r -> !r | None -> [] in
  List.find_map
    (function
      | Put (k, v) when k = key -> Some (Some v)
      | Delete k when k = key -> Some None
      | Put _ | Delete _ -> None)
    ops

let get t ~txn key =
  if not (Lockmgr.try_acquire t.lock_table ~txn ~key:(lock_name t key) Lockmgr.Shared)
  then None
  else
    match uncommitted_view t ~txn key with
    | Some v -> v
    | None -> Hashtbl.find_opt t.store key

let log_update t ~txn op =
  Wal.Log.append t.log
    (Wal.Log_record.make ~txn ~node:t.rm_name ~payload:(encode_op op) Wal.Log_record.Rm_update)

let put t ~txn ~key ~value =
  if Lockmgr.try_acquire t.lock_table ~txn ~key:(lock_name t key) Lockmgr.Exclusive
  then begin
    let ws = wset t txn in
    let op = Put (key, value) in
    ws := op :: !ws;
    log_update t ~txn op;
    true
  end
  else false

let delete t ~txn ~key =
  if Lockmgr.try_acquire t.lock_table ~txn ~key:(lock_name t key) Lockmgr.Exclusive
  then begin
    let ws = wset t txn in
    let op = Delete key in
    ws := op :: !ws;
    log_update t ~txn op;
    true
  end
  else false

let put_async t ~txn ~key ~value ~granted =
  Lockmgr.acquire t.lock_table ~txn ~key:(lock_name t key) Lockmgr.Exclusive
    ~granted:(fun () ->
      let ws = wset t txn in
      let op = Put (key, value) in
      ws := op :: !ws;
      log_update t ~txn op;
      granted ())

let get_async t ~txn ~key ~granted =
  Lockmgr.acquire t.lock_table ~txn ~key:(lock_name t key) Lockmgr.Shared
    ~granted:(fun () ->
      let v =
        match uncommitted_view t ~txn key with
        | Some v -> v
        | None -> Hashtbl.find_opt t.store key
      in
      granted v)

let is_updated t ~txn =
  match Hashtbl.find_opt t.wsets txn with Some r -> !r <> [] | None -> false

(* --- commit protocol ------------------------------------------------------ *)

let apply_ops t ops =
  List.iter
    (function
      | Put (k, v) -> Hashtbl.replace t.store k v
      | Delete k -> Hashtbl.remove t.store k)
    (List.rev ops)

let finish t ~txn =
  Hashtbl.remove t.wsets txn;
  Hashtbl.remove t.lost_txns txn;
  t.in_doubt_txns <- List.filter (fun x -> x <> txn) t.in_doubt_txns;
  Lockmgr.release_all t.lock_table ~txn

let prepare t ~txn ~force k =
  if Hashtbl.mem t.lost_txns txn then
    (* we performed updates for this transaction but a crash wiped the
       unprepared write set: "no updates" here means "work lost", so the
       only safe vote is NO *)
    k Vote_no
  else if not (is_updated t ~txn) then begin
    (* read-only: no log write, release read locks now *)
    Lockmgr.release_all t.lock_table ~txn;
    Hashtbl.remove t.wsets txn;
    k Vote_read_only
  end
  else begin
    let record = Wal.Log_record.make ~txn ~node:t.rm_name Wal.Log_record.Rm_prepared in
    if force then Wal.Log.force t.log record (fun () -> k Vote_yes)
    else begin
      (* shared-log optimization: buffered; hardens with the TM's force *)
      Wal.Log.append t.log record;
      k Vote_yes
    end
  end

let commit t ~txn ~force k =
  let ops = match Hashtbl.find_opt t.wsets txn with Some r -> !r | None -> [] in
  apply_ops t ops;
  let record = Wal.Log_record.make ~txn ~node:t.rm_name Wal.Log_record.Rm_committed in
  let continue () =
    finish t ~txn;
    k ()
  in
  if force then Wal.Log.force t.log record continue
  else begin
    Wal.Log.append t.log record;
    continue ()
  end

let abort t ~txn k =
  Wal.Log.append t.log (Wal.Log_record.make ~txn ~node:t.rm_name Wal.Log_record.Rm_aborted);
  finish t ~txn;
  k ()

let abandon t ~txn k =
  Wal.Log.append t.log (Wal.Log_record.make ~txn ~node:t.rm_name Wal.Log_record.Rm_aborted);
  finish t ~txn;
  (* remember the unilateral abort: a Prepare that straggles in afterwards
     (delayed, or retransmitted by a recovering coordinator) must draw
     Vote_no, not a read-only vote for work we just threw away *)
  Hashtbl.replace t.lost_txns txn ();
  k ()

(* --- introspection, crash, recovery -------------------------------------- *)

let committed_value t key = Hashtbl.find_opt t.store key

let committed_bindings t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.store []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let in_doubt t = t.in_doubt_txns

(* Only crash recovery puts transactions in doubt here, so the list is
   empty - and the test constant-time - outside recovery windows. *)
let is_in_doubt t ~txn = t.in_doubt_txns <> [] && List.mem txn t.in_doubt_txns

let crash t =
  Hashtbl.reset t.store;
  Hashtbl.reset t.wsets;
  t.in_doubt_txns <- [];
  (* the lock table is volatile state too: crashing reclaims every grant a
     dead transaction was holding (waiters' continuations died with us) *)
  Lockmgr.clear t.lock_table

(* --- checkpointing -------------------------------------------------------- *)

let encode_snapshot t =
  let buf = Buffer.create 256 in
  Hashtbl.iter
    (fun k v ->
      Buffer.add_string buf
        (Printf.sprintf "%d:%s%d:%s" (String.length k) k (String.length v) v))
    t.store;
  Buffer.contents buf

let decode_snapshot s =
  let bindings = ref [] in
  let pos = ref 0 in
  while !pos < String.length s do
    let k, p = decode_field s !pos in
    let v, p = decode_field s p in
    bindings := (k, v) :: !bindings;
    pos := p
  done;
  !bindings

let checkpoint t k =
  let record =
    Wal.Log_record.make ~txn:"(checkpoint)" ~node:t.rm_name
      ~payload:(encode_snapshot t) Wal.Log_record.Checkpoint
  in
  Wal.Log.force t.log record (fun () ->
      (* compact: drop this RM's records older than the checkpoint, except
         those of transactions still holding a write set (in flight or in
         doubt) *)
      let live txn = Hashtbl.mem t.wsets txn in
      (* find the newest durable checkpoint of this RM: everything of ours
         before it is superseded, unless it belongs to a live transaction *)
      let newest =
        List.fold_left
          (fun acc (r : Wal.Log_record.t) ->
            if r.node = t.rm_name && r.kind = Wal.Log_record.Checkpoint then
              Some r
            else acc)
          None (Wal.Log.durable t.log)
      in
      let past_newest = ref false in
      ignore
      @@ Wal.Log.compact t.log ~keep:(fun (r : Wal.Log_record.t) ->
             if (match newest with Some c -> r == c | None -> false) then begin
               past_newest := true;
               true
             end
             else if r.node <> t.rm_name then true
             else !past_newest || live r.txn);
      k ())

let replay_bindings records ~node =
  let store : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let pending : (string, op list ref) Hashtbl.t = Hashtbl.create 8 in
  let apply ops =
    List.iter
      (function
        | Put (k, v) -> Hashtbl.replace store k v
        | Delete k -> Hashtbl.remove store k)
      (List.rev ops)
  in
  List.iter
    (fun (r : Wal.Log_record.t) ->
      if r.node = node then
        match r.kind with
        | Wal.Log_record.Checkpoint ->
            Hashtbl.reset store;
            List.iter (fun (k, v) -> Hashtbl.replace store k v)
              (decode_snapshot r.payload)
        | Wal.Log_record.Rm_update ->
            let ops =
              match Hashtbl.find_opt pending r.txn with
              | Some l -> l
              | None ->
                  let l = ref [] in
                  Hashtbl.replace pending r.txn l;
                  l
            in
            ops := decode_op r.payload :: !ops
        | Wal.Log_record.Rm_committed ->
            (match Hashtbl.find_opt pending r.txn with
            | Some ops -> apply !ops
            | None -> ());
            Hashtbl.remove pending r.txn
        | Wal.Log_record.Rm_aborted -> Hashtbl.remove pending r.txn
        | Wal.Log_record.Rm_prepared | Wal.Log_record.Commit_pending
        | Wal.Log_record.Prepared | Wal.Log_record.Committed
        | Wal.Log_record.Aborted | Wal.Log_record.End | Wal.Log_record.Agent
        | Wal.Log_record.Heuristic_commit | Wal.Log_record.Heuristic_abort
        | Wal.Log_record.Certificate ->
            ())
    records;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) store []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let recover t =
  Hashtbl.reset t.store;
  Hashtbl.reset t.wsets;
  t.in_doubt_txns <- [];
  Hashtbl.reset t.lost_txns;
  let pending : (string, op list ref) Hashtbl.t = Hashtbl.create 8 in
  let prepared : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let scan (r : Wal.Log_record.t) =
    if r.node = t.rm_name then
      match r.kind with
      | Wal.Log_record.Checkpoint ->
          (* a checkpoint resets the store to its snapshot; later records
             replay on top *)
          Hashtbl.reset t.store;
          List.iter (fun (k, v) -> Hashtbl.replace t.store k v)
            (decode_snapshot r.payload)
      | Wal.Log_record.Rm_update ->
          let ops =
            match Hashtbl.find_opt pending r.txn with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.replace pending r.txn l;
                l
          in
          ops := decode_op r.payload :: !ops
      | Wal.Log_record.Rm_prepared -> Hashtbl.replace prepared r.txn ()
      | Wal.Log_record.Rm_committed ->
          (match Hashtbl.find_opt pending r.txn with
          | Some ops -> apply_ops t !ops
          | None -> ());
          Hashtbl.remove pending r.txn;
          Hashtbl.remove prepared r.txn
      | Wal.Log_record.Rm_aborted ->
          Hashtbl.remove pending r.txn;
          Hashtbl.remove prepared r.txn
      | Wal.Log_record.Commit_pending | Wal.Log_record.Prepared
      | Wal.Log_record.Committed | Wal.Log_record.Aborted | Wal.Log_record.End
      | Wal.Log_record.Agent | Wal.Log_record.Heuristic_commit
      | Wal.Log_record.Heuristic_abort | Wal.Log_record.Certificate ->
          ()
  in
  List.iter scan (Wal.Log.durable t.log);
  (* prepared-but-undecided transactions stay in doubt, write set retained,
     and their exclusive locks are re-acquired so new work cannot read or
     overwrite data whose fate is still unknown (the paper's blocking
     window) *)
  Hashtbl.iter
    (fun txn () ->
      t.in_doubt_txns <- txn :: t.in_doubt_txns;
      let ops =
        match Hashtbl.find_opt pending txn with
        | Some ops -> ops
        | None -> ref []
      in
      Hashtbl.replace t.wsets txn ops;
      List.iter
        (fun op ->
          let key = match op with Put (k, _) -> k | Delete k -> k in
          ignore
            (Lockmgr.try_acquire t.lock_table ~txn ~key:(lock_name t key)
               Lockmgr.Exclusive))
        !ops)
    prepared;
  (* updates logged but never prepared: the in-memory write set died with
     the crash, so a retransmitted Prepare must not mistake this for a
     read-only transaction *)
  Hashtbl.iter
    (fun txn _ops ->
      if not (Hashtbl.mem prepared txn) then Hashtbl.replace t.lost_txns txn ())
    pending
