type vote = Vote_yes | Vote_read_only | Vote_no

type op = Put of string * string | Delete of string

module Ids = Simkernel.Ids
module Keys = Hashtbl.Make (String)

type t = {
  engine : Simkernel.Engine.t;
  ids : Ids.t;  (* the engine's name table: transactions are keyed by id *)
  rm_name : string;
  log : Wal.Log.t;
  writer : int;  (* [rm_name]'s writer id in [log] *)
  mutable scratch : Bytes.t;  (* an undo/redo payload being encoded *)
  lock_table : Lockmgr.t;  (* private to this store: a lock is named by its key *)
  store : string Keys.t; (* committed values *)
  wsets : op list Ids.Tbl.t; (* txn id -> reversed op list *)
  mutable in_doubt_txns : string list;
  lost_txns : unit Ids.Tbl.t;
      (* txn ids whose unprepared updates were wiped by a crash: a later
         Prepare must vote NO, not read-only *)
}

let create engine ~name ~wal () =
  {
    engine;
    ids = Simkernel.Engine.ids engine;
    rm_name = name;
    log = wal;
    writer = Wal.Log.writer wal name;
    scratch = Bytes.empty;
    lock_table = Lockmgr.create engine;
    store = Keys.create 64;
    wsets = Ids.Tbl.create ~dummy:[];
    in_doubt_txns = [];
    lost_txns = Ids.Tbl.create ~dummy:();
  }

let name t = t.rm_name
let wal t = t.log
let locks t = t.lock_table

(* --- undo/redo payload encoding (length-prefixed, crash-safe) ------------ *)

(* A field is "<decimal length>:<bytes>".  Payloads are sized first and
   written into one [Bytes], so encoding builds nothing else. *)

let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)
let field_size s = digits (String.length s) + 1 + String.length s

(* write field [s] at [pos]; returns the position after it *)
let put_field b pos s =
  let len = String.length s in
  let d = digits len in
  let n = ref len in
  for i = pos + d - 1 downto pos do
    Bytes.set b i (Char.chr (Char.code '0' + (!n mod 10)));
    n := !n / 10
  done;
  Bytes.set b (pos + d) ':';
  Bytes.blit_string s 0 b (pos + d + 1) len;
  pos + d + 1 + len

(* encode [op] into the store's scratch buffer; answers its length *)
let encode_op t op =
  let n =
    match op with
    | Put (k, v) -> 1 + field_size k + field_size v
    | Delete k -> 1 + field_size k
  in
  if n > Bytes.length t.scratch then
    t.scratch <- Bytes.create (max (max 32 n) (2 * Bytes.length t.scratch));
  let b = t.scratch in
  (match op with
  | Put (k, v) ->
      Bytes.set b 0 'P';
      ignore (put_field b (put_field b 1 k) v)
  | Delete k ->
      Bytes.set b 0 'D';
      ignore (put_field b 1 k));
  n

(* A field read in place from a log row's payload bytes: the decimal
   length is parsed by hand, so only the field's own string is built. *)
let rec field_len b pos n =
  match Bytes.get b pos with
  | ':' -> (n, pos + 1)
  | c -> field_len b (pos + 1) ((n * 10) + Char.code c - Char.code '0')

let decode_field b pos =
  let len, start = field_len b pos 0 in
  (Bytes.sub_string b start len, start + len)

let decode_op b pos =
  match Bytes.get b pos with
  | 'P' ->
      let k, pos = decode_field b (pos + 1) in
      let v, _ = decode_field b pos in
      Put (k, v)
  | 'D' ->
      let k, _ = decode_field b (pos + 1) in
      Delete k
  | _ -> invalid_arg "kvstore: corrupt rm-update payload"

(* --- transaction-time operations ----------------------------------------- *)

(* [txn]'s write set, newest op first; empty when it wrote nothing here.
   A name never interned finds id -1, which no table holds. *)
let ops_of t ~txn = Ids.Tbl.find t.wsets (Ids.find t.ids txn)

let can_lock t ~txn ~key mode =
  match Lockmgr.holds t.lock_table ~txn ~key with
  | Some Lockmgr.Exclusive -> true
  | Some Lockmgr.Shared when mode = Lockmgr.Shared -> true
  | Some Lockmgr.Shared | None ->
      (* probe without acquiring: only exact state check available is
         try_acquire, so emulate by checking current holders *)
      let holders = Lockmgr.holders t.lock_table ~key in
      List.for_all
        (fun (h, m) ->
          h = txn
          || match (mode, m) with
             | Lockmgr.Shared, Lockmgr.Shared -> true
             | _ -> false)
        holders

(* the newest op for [key] in a write set (newest first): [Some (Some v)]
   for a put, [Some None] for a delete, [None] when [key] is unwritten *)
let rec newest key = function
  | [] -> None
  | Put (k, v) :: _ when k = key -> Some (Some v)
  | Delete k :: _ when k = key -> Some None
  | _ :: rest -> newest key rest

(* what [txn] sees: its own uncommitted write, else the committed value *)
let visible t ~txn key =
  match newest key (ops_of t ~txn) with
  | Some v -> v
  | None -> Keys.find_opt t.store key

let get t ~txn key =
  if not (Lockmgr.try_acquire t.lock_table ~txn ~key Lockmgr.Shared) then None
  else visible t ~txn key

(* buffer [op] in [txn]'s write set and log its undo/redo record *)
let update t ~txn op =
  let id = Ids.intern t.ids txn in
  Ids.Tbl.replace t.wsets id (op :: Ids.Tbl.find t.wsets id);
  let n = encode_op t op in
  Wal.Log.append_payload t.log ~txn:id ~writer:t.writer Wal.Log_record.Rm_update
    t.scratch n

let put t ~txn ~key ~value =
  if Lockmgr.try_acquire t.lock_table ~txn ~key Lockmgr.Exclusive
  then begin
    update t ~txn (Put (key, value));
    true
  end
  else false

let delete t ~txn ~key =
  if Lockmgr.try_acquire t.lock_table ~txn ~key Lockmgr.Exclusive
  then begin
    update t ~txn (Delete key);
    true
  end
  else false

let put_async t ~txn ~key ~value ~granted =
  Lockmgr.acquire t.lock_table ~txn ~key Lockmgr.Exclusive
    ~granted:(fun () ->
      update t ~txn (Put (key, value));
      granted ())

let get_async t ~txn ~key ~granted =
  Lockmgr.acquire t.lock_table ~txn ~key Lockmgr.Shared ~granted:(fun () ->
      granted (visible t ~txn key))

let is_updated t ~txn = ops_of t ~txn <> []

(* --- commit protocol ------------------------------------------------------ *)

(* apply a write set (newest first) to [store], oldest op first *)
let rec apply_to store = function
  | [] -> ()
  | op :: older -> (
      apply_to store older;
      match op with
      | Put (k, v) -> Keys.replace store k v
      | Delete k -> Keys.remove store k)

(* drop [txn]'s write set and its lost mark *)
let forget t ~txn =
  let id = Ids.find t.ids txn in
  Ids.Tbl.remove t.wsets id;
  Ids.Tbl.remove t.lost_txns id

let finish t ~txn =
  forget t ~txn;
  if t.in_doubt_txns <> [] then
    t.in_doubt_txns <- List.filter (fun x -> x <> txn) t.in_doubt_txns;
  Lockmgr.release_all t.lock_table ~txn

(* The vote, before anything is logged: [Vote_yes] means an
   [Rm_prepared] record is due. *)
let vote t ~txn =
  if Ids.Tbl.mem t.lost_txns (Ids.find t.ids txn) then
    (* we performed updates for this transaction but a crash wiped the
       unprepared write set: "no updates" here means "work lost", so the
       only safe vote is NO *)
    Vote_no
  else if not (is_updated t ~txn) then begin
    (* read-only: no log write, release read locks now *)
    Lockmgr.release_all t.lock_table ~txn;
    forget t ~txn;
    Vote_read_only
  end
  else Vote_yes

let record t ~txn kind = Wal.Log_record.make ~txn ~node:t.rm_name kind

let prepare_buffered t ~txn =
  let v = vote t ~txn in
  if v = Vote_yes then
    (* shared-log optimization: buffered; hardens with the TM's force *)
    Wal.Log.append_row t.log ~txn:(Ids.intern t.ids txn) ~writer:t.writer
      Wal.Log_record.Rm_prepared;
  v

let prepare t ~txn ~force k =
  if not force then k (prepare_buffered t ~txn)
  else
    match vote t ~txn with
    | Vote_yes ->
        Wal.Log.force t.log (record t ~txn Wal.Log_record.Rm_prepared) (fun () ->
            k Vote_yes)
    | v -> k v

let commit_buffered t ~txn =
  apply_to t.store (ops_of t ~txn);
  Wal.Log.append_row t.log ~txn:(Ids.intern t.ids txn) ~writer:t.writer
    Wal.Log_record.Rm_committed;
  finish t ~txn

let commit t ~txn ~force k =
  if not force then begin
    commit_buffered t ~txn;
    k ()
  end
  else begin
    apply_to t.store (ops_of t ~txn);
    Wal.Log.force t.log (record t ~txn Wal.Log_record.Rm_committed) (fun () ->
        finish t ~txn;
        k ())
  end

let log_abort t ~txn =
  Wal.Log.append_row t.log ~txn:(Ids.intern t.ids txn) ~writer:t.writer
    Wal.Log_record.Rm_aborted

let abort t ~txn k =
  log_abort t ~txn;
  finish t ~txn;
  k ()

let abandon t ~txn k =
  log_abort t ~txn;
  finish t ~txn;
  (* remember the unilateral abort: a Prepare that straggles in afterwards
     (delayed, or retransmitted by a recovering coordinator) must draw
     Vote_no, not a read-only vote for work we just threw away *)
  Ids.Tbl.replace t.lost_txns (Ids.intern t.ids txn) ();
  k ()

(* --- introspection, crash, recovery -------------------------------------- *)

let committed_value t key = Keys.find_opt t.store key

let committed_bindings t =
  Keys.fold (fun k v acc -> (k, v) :: acc) t.store []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let iter_committed t f = Keys.iter f t.store

let in_doubt t = t.in_doubt_txns

(* Only crash recovery puts transactions in doubt here, so the list is
   empty - and the test constant-time - outside recovery windows. *)
let is_in_doubt t ~txn = t.in_doubt_txns <> [] && List.mem txn t.in_doubt_txns

let crash t =
  Keys.reset t.store;
  Ids.Tbl.reset t.wsets;
  t.in_doubt_txns <- [];
  (* the lock table is volatile state too: crashing reclaims every grant a
     dead transaction was holding (waiters' continuations died with us) *)
  Lockmgr.clear t.lock_table

(* --- checkpointing -------------------------------------------------------- *)

(* every binding as a key field then a value field, in table order;
   [String.hash] is [Hashtbl.hash] on strings, so the order, and with it
   the checkpoint bytes, are those of a generic table *)
let encode_snapshot t =
  let b =
    Bytes.create
      (Keys.fold (fun k v n -> n + field_size k + field_size v) t.store 0)
  in
  ignore
    (Keys.fold (fun k v pos -> put_field b (put_field b pos k) v) t.store 0);
  Bytes.unsafe_to_string b

(* Load the snapshot of checkpoint row [i] into [store].  Its last pair
   is bound first: a table iterates in an order that depends on insertion
   order, and that order is the next checkpoint's bytes. *)
let load_snapshot store log i =
  let b = Wal.Log.row_payload_bytes log i in
  let start = Wal.Log.row_payload_offset log i in
  let stop = start + Wal.Log.row_payload_length log i in
  let rec decode pos acc =
    if pos >= stop then acc
    else
      let k, p = decode_field b pos in
      let v, p = decode_field b p in
      decode p ((k, v) :: acc)
  in
  Keys.reset store;
  List.iter (fun (k, v) -> Keys.replace store k v) (decode start [])

let checkpoint t k =
  let record =
    Wal.Log_record.make ~txn:"(checkpoint)" ~node:t.rm_name
      ~payload:(encode_snapshot t) Wal.Log_record.Checkpoint
  in
  Wal.Log.force t.log record (fun () ->
      (* compact: drop this RM's records older than its newest durable
         checkpoint, except those of transactions still holding a write
         set (in flight or in doubt) *)
      let log = t.log in
      let newest = ref (-1) in
      for i = 0 to Wal.Log.durable_rows log - 1 do
        if
          Wal.Log.row_writer log i = t.writer
          && Wal.Log.row_kind log i = Wal.Log_record.Checkpoint
        then newest := i
      done;
      let newest = !newest in
      ignore
      @@ Wal.Log.compact_rows log ~keep:(fun i ->
             Wal.Log.row_writer log i <> t.writer
             || (newest >= 0 && i >= newest)
             || Ids.Tbl.mem t.wsets (Wal.Log.row_txn log i));
      k ())

(* The write set [pending] accumulates for [txn] during a log replay.
   Replays key transactions by name: recovery walks its tables in their
   order, and that order (the in-doubt list, lock re-acquisition)
   reaches the output. *)
let pending_ops pending txn =
  match Keys.find_opt pending txn with
  | Some l -> l
  | None ->
      let l = ref [] in
      Keys.replace pending txn l;
      l

let txn_at log i = Wal.Log.txn_name log (Wal.Log.row_txn log i)

let replay_update pending log i =
  let ops = pending_ops pending (txn_at log i) in
  ops :=
    decode_op (Wal.Log.row_payload_bytes log i) (Wal.Log.row_payload_offset log i)
    :: !ops

(* [txn]'s outcome is logged: it leaves a replay's open transactions *)
let settle pending prepared txn =
  Keys.remove pending txn;
  match prepared with Some prepared -> Keys.remove prepared txn | None -> ()

(* Replay this resource manager's records among the log's first [rows]
   rows into [store]: a checkpoint resets it to its snapshot and later
   records replay on top, a commit applies the write set its updates
   built up in [pending], an abort discards it.  With [prepared], also
   collect the transactions prepared without an outcome; without, a row
   builds nothing a pure replay does not need. *)
let replay t store pending prepared rows =
  let log = t.log in
  for i = 0 to rows - 1 do
    if Wal.Log.row_writer log i = t.writer then
      match Wal.Log.row_kind log i with
      | Wal.Log_record.Checkpoint -> load_snapshot store log i
      | Wal.Log_record.Rm_update -> replay_update pending log i
      | Wal.Log_record.Rm_prepared -> (
          match prepared with
          | Some prepared -> Keys.replace prepared (txn_at log i) ()
          | None -> ())
      | Wal.Log_record.Rm_committed ->
          let txn = txn_at log i in
          (match Keys.find_opt pending txn with
          | Some ops -> apply_to store !ops
          | None -> ());
          settle pending prepared txn
      | Wal.Log_record.Rm_aborted -> settle pending prepared (txn_at log i)
      | Wal.Log_record.Commit_pending | Wal.Log_record.Prepared
      | Wal.Log_record.Committed | Wal.Log_record.Aborted | Wal.Log_record.End
      | Wal.Log_record.Agent | Wal.Log_record.Heuristic_commit
      | Wal.Log_record.Heuristic_abort | Wal.Log_record.Certificate ->
          ()
  done

(* every row, durable and volatile, against the committed store *)
let agrees_with_log t =
  let replayed = Keys.create 64 in
  replay t replayed (Keys.create 8) None (Wal.Log.rows t.log);
  let bound key v =
    match Keys.find t.store key with u -> String.equal u v | exception Not_found -> false
  in
  Keys.length replayed = Keys.length t.store
  && Keys.fold (fun key v same -> same && bound key v) replayed true

let recover t =
  Keys.reset t.store;
  Ids.Tbl.reset t.wsets;
  t.in_doubt_txns <- [];
  Ids.Tbl.reset t.lost_txns;
  let pending : op list ref Keys.t = Keys.create 8 in
  let prepared : unit Keys.t = Keys.create 8 in
  replay t t.store pending (Some prepared) (Wal.Log.durable_rows t.log);
  (* prepared-but-undecided transactions stay in doubt, write set retained,
     and their exclusive locks are re-acquired so new work cannot read or
     overwrite data whose fate is still unknown (the paper's blocking
     window) *)
  Keys.iter
    (fun txn () ->
      t.in_doubt_txns <- txn :: t.in_doubt_txns;
      let ops =
        match Keys.find_opt pending txn with
        | Some ops -> !ops
        | None -> []
      in
      Ids.Tbl.replace t.wsets (Ids.intern t.ids txn) ops;
      List.iter
        (fun op ->
          let key = match op with Put (k, _) -> k | Delete k -> k in
          ignore
            (Lockmgr.try_acquire t.lock_table ~txn ~key Lockmgr.Exclusive))
        ops)
    prepared;
  (* updates logged but never prepared: the in-memory write set died with
     the crash, so a retransmitted Prepare must not mistake this for a
     read-only transaction *)
  Keys.iter
    (fun txn _ops ->
      if not (Keys.mem prepared txn) then
        Ids.Tbl.replace t.lost_txns (Ids.intern t.ids txn) ())
    pending
