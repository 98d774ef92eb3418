(* The lock table and the store key transactions by their id in the
   engine's name table.  The string-keyed lock manager and store they
   replaced are kept here, trimmed to the operations under test, as the
   reference: random operation sequences over a few hundred transaction
   names must leave both answering alike at every step.

   A case runs several worlds on one engine, resetting it in between, and
   each world opens on the transaction the previous one touched last.  The
   names are the same string objects in every world, so a name table that
   kept a stale entry - its one-entry cache, say - across the reset would
   answer the new world with the old world's id.

   The reference store writes to the record-array log kept in wal_ref.ml,
   as it did when it was written: its checkpoint finds the newest
   checkpoint record by physical identity across [durable] and
   [compact]'s predicate, which a log that rebuilds records on read
   cannot offer. *)

module E = Simkernel.Engine
module Q = QCheck

let qtest = QCheck_alcotest.to_alcotest

(* --- the string-keyed lock manager ------------------------------------- *)

module Ref_lockmgr = struct
  type grant = { g_txn : string; mutable g_mode : Lockmgr.mode; g_since : float }
  type wait = { w_txn : string; w_mode : Lockmgr.mode; w_granted : unit -> unit }
  type entry = { mutable grants : grant list; mutable queue : wait list }
  type tally = { mutable held : float }

  type t = {
    engine : E.t;
    table : (string, entry) Hashtbl.t;
    txn_keys : (string, string list ref) Hashtbl.t;
    txn_time : (string, tally) Hashtbl.t;
    mutable acquisitions : int;
    mutable total : float;
    mutable longest : float;
    mutable nwaiting : int;
  }

  let create engine =
    {
      engine;
      table = Hashtbl.create 64;
      txn_keys = Hashtbl.create 16;
      txn_time = Hashtbl.create 16;
      acquisitions = 0;
      total = 0.0;
      longest = 0.0;
      nwaiting = 0;
    }

  let grant_of txn grants = List.find_opt (fun g -> g.g_txn = txn) grants

  let compatible mode txn grants =
    List.for_all
      (fun g -> g.g_txn = txn || (mode = Lockmgr.Shared && g.g_mode = Lockmgr.Shared))
      grants

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
    (match grant_of txn e.grants with
    | Some g -> if mode = Lockmgr.Exclusive then g.g_mode <- Lockmgr.Exclusive
    | None ->
        e.grants <- { g_txn = txn; g_mode = mode; g_since = E.now t.engine } :: e.grants;
        t.acquisitions <- t.acquisitions + 1);
    note_key t ~txn ~key

  let can_grant e ~txn mode =
    match grant_of txn e.grants with
    | None -> compatible mode txn e.grants
    | Some g -> (
        match (mode, g.g_mode) with
        | Lockmgr.Shared, _ | Lockmgr.Exclusive, Lockmgr.Exclusive -> true
        | Lockmgr.Exclusive, Lockmgr.Shared -> compatible Lockmgr.Exclusive txn e.grants)

  let try_acquire t ~txn ~key mode =
    let e = entry t key in
    if e.queue <> [] && grant_of txn e.grants = None then false
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

  let rec pump t key e =
    match e.queue with
    | w :: rest when can_grant e ~txn:w.w_txn w.w_mode ->
        e.queue <- rest;
        t.nwaiting <- t.nwaiting - 1;
        grant_now t e ~txn:w.w_txn ~key w.w_mode;
        w.w_granted ();
        pump t key e
    | _ -> ()

  let release_key t ~txn ~now tally key =
    match Hashtbl.find_opt t.table key with
    | None -> ()
    | Some e ->
        (match grant_of txn e.grants with
        | Some g ->
            e.grants <- List.filter (fun x -> x != g) e.grants;
            let held = now -. g.g_since in
            t.total <- t.total +. held;
            tally.held <- tally.held +. held;
            if held > t.longest then t.longest <- held
        | None -> ());
        pump t key e;
        if e.grants = [] && e.queue = [] then
          match Hashtbl.find_opt t.table key with
          | Some e' when e' == e -> Hashtbl.remove t.table key
          | _ -> ()

  let release_all t ~txn =
    match Hashtbl.find_opt t.txn_keys txn with
    | None -> ()
    | Some keys ->
        Hashtbl.remove t.txn_keys txn;
        let tally =
          match Hashtbl.find_opt t.txn_time txn with
          | Some r -> r
          | None ->
              let r = { held = 0.0 } in
              Hashtbl.replace t.txn_time txn r;
              r
        in
        let now = E.now t.engine in
        List.iter (release_key t ~txn ~now tally) !keys

  let holding_txns t =
    Hashtbl.fold (fun txn _ acc -> txn :: acc) t.txn_keys [] |> List.sort_uniq compare

  let holds_any t ~txn = Hashtbl.mem t.txn_keys txn

  let clear t =
    Hashtbl.reset t.table;
    Hashtbl.reset t.txn_keys;
    t.nwaiting <- 0

  let holds t ~txn ~key =
    match Hashtbl.find_opt t.table key with
    | None -> None
    | Some e -> Option.map (fun g -> g.g_mode) (grant_of txn e.grants)

  let holders t ~key =
    match Hashtbl.find_opt t.table key with
    | None -> []
    | Some e -> List.map (fun g -> (g.g_txn, g.g_mode)) e.grants

  let stats t =
    { Lockmgr.acquisitions = t.acquisitions; total_hold_time = t.total; max_hold_time = t.longest }

  let txn_lock_time t ~txn =
    match Hashtbl.find_opt t.txn_time txn with Some r -> r.held | None -> 0.0
end

(* --- the string-keyed store --------------------------------------------- *)

module Ref_kvstore = struct
  module R = Wal.Log_record

  type op = Put of string * string

  type t = {
    rm_name : string;
    log : Wal_ref.t;
    lock_table : Ref_lockmgr.t;
    store : (string, string) Hashtbl.t;
    wsets : (string, op list ref) Hashtbl.t;
    mutable in_doubt_txns : string list;
    lost_txns : (string, unit) Hashtbl.t;
  }

  let create engine ~name ~wal =
    {
      rm_name = name;
      log = wal;
      lock_table = Ref_lockmgr.create engine;
      store = Hashtbl.create 64;
      wsets = Hashtbl.create 8;
      in_doubt_txns = [];
      lost_txns = Hashtbl.create 4;
    }

  let field s = Printf.sprintf "%d:%s" (String.length s) s
  let encode_op (Put (k, v)) = "P" ^ field k ^ field v

  let decode_field s pos =
    let colon = String.index_from s pos ':' in
    let len = int_of_string (String.sub s pos (colon - pos)) in
    (String.sub s (colon + 1) len, colon + 1 + len)

  let decode_op s =
    let k, pos = decode_field s 1 in
    let v, _ = decode_field s pos in
    Put (k, v)

  let decode_snapshot s =
    let rec go pos acc =
      if pos >= String.length s then acc
      else
        let k, p = decode_field s pos in
        let v, p = decode_field s p in
        go p ((k, v) :: acc)
    in
    go 0 []

  let wset t txn =
    match Hashtbl.find_opt t.wsets txn with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.replace t.wsets txn r;
        r

  let rec newest key = function
    | [] -> None
    | Put (k, v) :: _ when k = key -> Some v
    | _ :: rest -> newest key rest

  let get t ~txn key =
    if not (Ref_lockmgr.try_acquire t.lock_table ~txn ~key Lockmgr.Shared) then None
    else
      let ops = match Hashtbl.find_opt t.wsets txn with Some r -> !r | None -> [] in
      match newest key ops with Some v -> Some v | None -> Hashtbl.find_opt t.store key

  let put t ~txn ~key ~value =
    if Ref_lockmgr.try_acquire t.lock_table ~txn ~key Lockmgr.Exclusive then begin
      let ws = wset t txn in
      let op = Put (key, value) in
      ws := op :: !ws;
      Wal_ref.append t.log (R.make ~txn ~node:t.rm_name ~payload:(encode_op op) R.Rm_update);
      true
    end
    else false

  let is_updated t ~txn =
    match Hashtbl.find_opt t.wsets txn with Some r -> !r <> [] | None -> false

  let apply_to store ops = List.iter (fun (Put (k, v)) -> Hashtbl.replace store k v) (List.rev ops)

  let finish t ~txn =
    Hashtbl.remove t.wsets txn;
    Hashtbl.remove t.lost_txns txn;
    t.in_doubt_txns <- List.filter (fun x -> x <> txn) t.in_doubt_txns;
    Ref_lockmgr.release_all t.lock_table ~txn

  let prepare t ~txn ~force k =
    if Hashtbl.mem t.lost_txns txn then k Kvstore.Vote_no
    else if not (is_updated t ~txn) then begin
      Ref_lockmgr.release_all t.lock_table ~txn;
      Hashtbl.remove t.wsets txn;
      k Kvstore.Vote_read_only
    end
    else
      let record = R.make ~txn ~node:t.rm_name R.Rm_prepared in
      if force then Wal_ref.force t.log record (fun () -> k Kvstore.Vote_yes)
      else begin
        Wal_ref.append t.log record;
        k Kvstore.Vote_yes
      end

  let commit t ~txn ~force k =
    (match Hashtbl.find_opt t.wsets txn with Some ops -> apply_to t.store !ops | None -> ());
    let record = R.make ~txn ~node:t.rm_name R.Rm_committed in
    let continue () =
      finish t ~txn;
      k ()
    in
    if force then Wal_ref.force t.log record continue
    else begin
      Wal_ref.append t.log record;
      continue ()
    end

  let abort t ~txn k =
    Wal_ref.append t.log (R.make ~txn ~node:t.rm_name R.Rm_aborted);
    finish t ~txn;
    k ()

  let abandon t ~txn k =
    abort t ~txn (fun () -> ());
    Hashtbl.replace t.lost_txns txn ();
    k ()

  let committed_bindings t =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.store [] |> List.sort compare

  let crash t =
    Hashtbl.reset t.store;
    Hashtbl.reset t.wsets;
    t.in_doubt_txns <- [];
    Ref_lockmgr.clear t.lock_table

  let checkpoint t k =
    let snapshot =
      String.concat "" (Hashtbl.fold (fun k v acc -> acc @ [ field k ^ field v ]) t.store [])
    in
    let record = R.make ~txn:"(checkpoint)" ~node:t.rm_name ~payload:snapshot R.Checkpoint in
    Wal_ref.force t.log record (fun () ->
        let newest =
          List.fold_left
            (fun acc (r : R.t) -> if r.node = t.rm_name && r.kind = R.Checkpoint then Some r else acc)
            None (Wal_ref.durable t.log)
        in
        let past_newest = ref false in
        ignore
        @@ Wal_ref.compact t.log ~keep:(fun (r : R.t) ->
               if (match newest with Some c -> r == c | None -> false) then begin
                 past_newest := true;
                 true
               end
               else if r.node <> t.rm_name then true
               else !past_newest || Hashtbl.mem t.wsets r.txn);
        k ())

  let recover t =
    Hashtbl.reset t.store;
    Hashtbl.reset t.wsets;
    t.in_doubt_txns <- [];
    Hashtbl.reset t.lost_txns;
    let pending = Hashtbl.create 8 and prepared = Hashtbl.create 8 in
    let pending_ops txn =
      match Hashtbl.find_opt pending txn with
      | Some l -> l
      | None ->
          let l = ref [] in
          Hashtbl.replace pending txn l;
          l
    in
    List.iter
      (fun (r : R.t) ->
        if r.node = t.rm_name then
          match r.kind with
          | R.Checkpoint ->
              Hashtbl.reset t.store;
              List.iter (fun (k, v) -> Hashtbl.replace t.store k v) (decode_snapshot r.payload)
          | R.Rm_update ->
              let ops = pending_ops r.txn in
              ops := decode_op r.payload :: !ops
          | R.Rm_prepared -> Hashtbl.replace prepared r.txn ()
          | R.Rm_committed ->
              (match Hashtbl.find_opt pending r.txn with
              | Some ops -> apply_to t.store !ops
              | None -> ());
              Hashtbl.remove pending r.txn;
              Hashtbl.remove prepared r.txn
          | R.Rm_aborted ->
              Hashtbl.remove pending r.txn;
              Hashtbl.remove prepared r.txn
          | _ -> ())
      (Wal_ref.durable t.log);
    Hashtbl.iter
      (fun txn () ->
        t.in_doubt_txns <- txn :: t.in_doubt_txns;
        let ops = match Hashtbl.find_opt pending txn with Some ops -> ops | None -> ref [] in
        Hashtbl.replace t.wsets txn ops;
        List.iter
          (fun (Put (key, _)) ->
            ignore (Ref_lockmgr.try_acquire t.lock_table ~txn ~key Lockmgr.Exclusive))
          !ops)
      prepared;
    Hashtbl.iter
      (fun txn _ -> if not (Hashtbl.mem prepared txn) then Hashtbl.replace t.lost_txns txn ())
      pending
end

(* --- operations ---------------------------------------------------------- *)

(* The same string objects in every world. *)
let names = Array.init 300 (fun i -> "mx-" ^ string_of_int i)
let keys = Array.init 10 (fun i -> "k" ^ string_of_int i)

type op =
  | Tick of int  (* advance both clocks *)
  | L_try of int * int * bool  (* txn, key, exclusive *)
  | L_acquire of int * int * bool
  | L_release of int
  | L_clear
  | S_put of int * int * int  (* txn, key, value *)
  | S_get of int * int
  | S_prepare of int * bool  (* txn, force *)
  | S_commit of int * bool
  | S_abort of int
  | S_abandon of int
  | S_crash
  | S_recover
  | S_checkpoint

let key_of = function
  | L_try (_, k, _) | L_acquire (_, k, _) | S_put (_, k, _) | S_get (_, k) -> k
  | _ -> 0

let txn_of = function
  | L_try (x, _, _) | L_acquire (x, _, _) | L_release x
  | S_put (x, _, _) | S_get (x, _) | S_prepare (x, _) | S_commit (x, _)
  | S_abort x | S_abandon x -> Some x
  | Tick _ | L_clear | S_crash | S_recover | S_checkpoint -> None

let op_print = function
  | Tick d -> Printf.sprintf "tick %d" d
  | L_try (x, k, ex) -> Printf.sprintf "try %s %s %b" names.(x) keys.(k) ex
  | L_acquire (x, k, ex) -> Printf.sprintf "acquire %s %s %b" names.(x) keys.(k) ex
  | L_release x -> "release " ^ names.(x)
  | L_clear -> "clear"
  | S_put (x, k, v) -> Printf.sprintf "put %s %s %d" names.(x) keys.(k) v
  | S_get (x, k) -> Printf.sprintf "get %s %s" names.(x) keys.(k)
  | S_prepare (x, f) -> Printf.sprintf "prepare %s %b" names.(x) f
  | S_commit (x, f) -> Printf.sprintf "commit %s %b" names.(x) f
  | S_abort x -> "abort " ^ names.(x)
  | S_abandon x -> "abandon " ^ names.(x)
  | S_crash -> "crash"
  | S_recover -> "recover"
  | S_checkpoint -> "checkpoint"

(* One world's operations over a window of the names: [n] names from
   [base], so successive worlds use different, and differently many,
   transactions.  It ends on a put, so the name looked up last is known. *)
let gen_world =
  Q.Gen.(
    int_bound 299 >>= fun base ->
    int_range 2 24 >>= fun n ->
    let txn = map (fun i -> (base + i) mod Array.length names) (int_bound (n - 1)) in
    let key = int_bound (Array.length keys - 1) in
    map2
      (fun ops x -> ops @ [ S_put (x, 0, 0) ])
      (list_size (int_range 5 60)
      (frequency
         [
           (2, map (fun d -> Tick d) (int_range 1 9));
           (3, map3 (fun x k ex -> L_try (x, k, ex)) txn key bool);
           (3, map3 (fun x k ex -> L_acquire (x, k, ex)) txn key bool);
           (2, map (fun x -> L_release x) txn);
           (1, return L_clear);
           (4, map3 (fun x k v -> S_put (x, k, v)) txn key (int_bound 9));
           (2, map2 (fun x k -> S_get (x, k)) txn key);
           (2, map2 (fun x f -> S_prepare (x, f)) txn bool);
           (2, map2 (fun x f -> S_commit (x, f)) txn bool);
           (1, map (fun x -> S_abort x) txn);
           (1, map (fun x -> S_abandon x) txn);
           (1, return S_crash);
           (1, return S_recover);
           (1, return S_checkpoint);
         ]))
      txn)

(* Each world after the first opens on the transaction its predecessor
   touched last. *)
let chain worlds =
  let last ops =
    match txn_of (List.nth ops (List.length ops - 1)) with Some x -> x | None -> 0
  in
  let rec go prev = function
    | [] -> []
    | ops :: rest ->
        let ops =
          match prev with
          | None -> ops
          | Some x -> L_try (x, 0, true) :: S_put (x, 1, 1) :: ops
        in
        ops :: go (Some (last ops)) rest
  in
  go None worlds

let arb_worlds =
  Q.make
    ~print:(fun ws ->
      String.concat "\n--- reset ---\n"
        (List.map (fun ops -> String.concat "; " (List.map op_print ops)) ws))
    Q.Gen.(map chain (list_size (int_range 1 4) gen_world))

(* --- running both sides ---------------------------------------------------- *)

let mode ex = if ex then Lockmgr.Exclusive else Lockmgr.Shared

let show_records records =
  List.map
    (fun (r : Wal.Log_record.t) -> (r.txn, r.node, Wal.Log_record.kind_to_string r.kind, r.payload))
    records

let show_vote = function
  | Kvstore.Vote_yes -> "yes"
  | Kvstore.Vote_read_only -> "read-only"
  | Kvstore.Vote_no -> "no"

(* Run one world's operations on a fresh lock table and store over the
   (reset) engine [e], and on the reference over its own engine; fail at
   the first observation on which they differ. *)
let run_world e ops =
  E.reset e;
  let r = E.create () in
  let locks = Lockmgr.create e and ref_locks = Ref_lockmgr.create r in
  let wal = Wal.Log.create e ~node:"n" () and ref_wal = Wal_ref.create r ~node:"n" () in
  let kv = Kvstore.create e ~name:"n.rm" ~wal () in
  let ref_kv = Ref_kvstore.create r ~name:"n.rm" ~wal:ref_wal in
  let granted = ref [] and ref_granted = ref [] in
  let agree step what pp a b =
    if a <> b then
      Q.Test.fail_reportf "after %s: %s is %s, the string-keyed reference says %s"
        step what (pp a) (pp b)
  in
  let str s = s and strs l = "[" ^ String.concat "; " l ^ "]" in
  List.iter
    (fun op ->
      let step = op_print op in
      let result, ref_result =
        match op with
        | Tick d ->
            E.run_until e (E.now e +. float_of_int d);
            E.run_until r (E.now r +. float_of_int d);
            ("", "")
        | L_try (x, k, ex) ->
            let txn = names.(x) and key = keys.(k) in
            ( string_of_bool (Lockmgr.try_acquire locks ~txn ~key (mode ex)),
              string_of_bool (Ref_lockmgr.try_acquire ref_locks ~txn ~key (mode ex)) )
        | L_acquire (x, k, ex) ->
            let txn = names.(x) and key = keys.(k) in
            Lockmgr.acquire locks ~txn ~key (mode ex) ~granted:(fun () ->
                granted := (txn ^ "@" ^ key) :: !granted);
            Ref_lockmgr.acquire ref_locks ~txn ~key (mode ex) ~granted:(fun () ->
                ref_granted := (txn ^ "@" ^ key) :: !ref_granted);
            ("", "")
        | L_release x ->
            Lockmgr.release_all locks ~txn:names.(x);
            Ref_lockmgr.release_all ref_locks ~txn:names.(x);
            ("", "")
        | L_clear ->
            Lockmgr.clear locks;
            Ref_lockmgr.clear ref_locks;
            ("", "")
        | S_put (x, k, v) ->
            let txn = names.(x) and key = keys.(k) and value = string_of_int v in
            ( string_of_bool (Kvstore.put kv ~txn ~key ~value),
              string_of_bool (Ref_kvstore.put ref_kv ~txn ~key ~value) )
        | S_get (x, k) ->
            let txn = names.(x) and key = keys.(k) in
            let show = Option.value ~default:"-" in
            (show (Kvstore.get kv ~txn key), show (Ref_kvstore.get ref_kv ~txn key))
        | S_prepare (x, force) ->
            let txn = names.(x) in
            let v = ref "pending" and rv = ref "pending" in
            Kvstore.prepare kv ~txn ~force (fun vote -> v := show_vote vote);
            Ref_kvstore.prepare ref_kv ~txn ~force (fun vote -> rv := show_vote vote);
            E.run e;
            E.run r;
            (!v, !rv)
        | S_commit (x, force) ->
            let txn = names.(x) in
            let d = ref "pending" and rd = ref "pending" in
            Kvstore.commit kv ~txn ~force (fun () -> d := "done");
            Ref_kvstore.commit ref_kv ~txn ~force (fun () -> rd := "done");
            E.run e;
            E.run r;
            (!d, !rd)
        | S_abort x ->
            Kvstore.abort kv ~txn:names.(x) ignore;
            Ref_kvstore.abort ref_kv ~txn:names.(x) ignore;
            ("", "")
        | S_abandon x ->
            Kvstore.abandon kv ~txn:names.(x) ignore;
            Ref_kvstore.abandon ref_kv ~txn:names.(x) ignore;
            ("", "")
        | S_crash ->
            Wal.Log.crash wal;
            Kvstore.crash kv;
            Wal_ref.crash ref_wal;
            Ref_kvstore.crash ref_kv;
            ("", "")
        | S_recover ->
            Kvstore.recover kv;
            Ref_kvstore.recover ref_kv;
            ("", "")
        | S_checkpoint ->
            Kvstore.checkpoint kv ignore;
            Ref_kvstore.checkpoint ref_kv ignore;
            E.run e;
            E.run r;
            ("", "")
      in
      agree step "the result" str result ref_result;
      agree step "the grants fired" strs !granted !ref_granted;
      agree step "the lock table's holders" strs (Lockmgr.holding_txns locks)
        (Ref_lockmgr.holding_txns ref_locks);
      agree step "the waiting count" string_of_int (Lockmgr.waiting locks)
        ref_locks.Ref_lockmgr.nwaiting;
      let show_stats (s : Lockmgr.hold_stats) =
        Printf.sprintf "%d/%h/%h" s.acquisitions s.total_hold_time s.max_hold_time
      in
      agree step "the hold statistics" show_stats (Lockmgr.stats locks)
        (Ref_lockmgr.stats ref_locks);
      Array.iter
        (fun key ->
          let show l =
            strs (List.map (fun (x, m) -> x ^ if m = Lockmgr.Shared then ":S" else ":X") l)
          in
          agree step ("the holders of " ^ key) show (Lockmgr.holders locks ~key)
            (Ref_lockmgr.holders ref_locks ~key))
        keys;
      agree step "the store's committed bindings"
        (fun l -> strs (List.map (fun (k, v) -> k ^ "=" ^ v) l))
        (Kvstore.committed_bindings kv)
        (Ref_kvstore.committed_bindings ref_kv);
      agree step "the store's in-doubt list" strs (Kvstore.in_doubt kv)
        ref_kv.Ref_kvstore.in_doubt_txns;
      agree step "the store's lock holders" strs
        (Lockmgr.holding_txns (Kvstore.locks kv))
        (Ref_lockmgr.holding_txns ref_kv.Ref_kvstore.lock_table);
      agree step "the log"
        (fun l -> strs (List.map (fun (x, n, k, p) -> String.concat "," [ x; n; k; p ]) l))
        (show_records (Wal.Log.all_records wal))
        (show_records (Wal_ref.all_records ref_wal));
      agree step "the durable prefix" string_of_int
        (List.length (Wal.Log.durable wal))
        (List.length (Wal_ref.durable ref_wal));
      (* the operation's own transaction, looked up last *)
      match txn_of op with
      | None -> ()
      | Some x ->
          let txn = names.(x) and key = keys.(key_of op) in
          let show_mode = function
            | None -> "-"
            | Some Lockmgr.Shared -> "S"
            | Some Lockmgr.Exclusive -> "X"
          in
          agree step ("what " ^ txn ^ " holds") show_mode (Lockmgr.holds locks ~txn ~key)
            (Ref_lockmgr.holds ref_locks ~txn ~key);
          agree step ("whether " ^ txn ^ " holds any lock") string_of_bool
            (Lockmgr.holds_any locks ~txn)
            (Ref_lockmgr.holds_any ref_locks ~txn);
          agree step (txn ^ "'s lock time") (Printf.sprintf "%h")
            (Lockmgr.txn_lock_time locks ~txn)
            (Ref_lockmgr.txn_lock_time ref_locks ~txn);
          agree step ("whether " ^ txn ^ " updated the store") string_of_bool
            (Kvstore.is_updated kv ~txn)
            (Ref_kvstore.is_updated ref_kv ~txn);
          agree step ("whether " ^ txn ^ " is in doubt") string_of_bool
            (Kvstore.is_in_doubt kv ~txn)
            (List.mem txn ref_kv.Ref_kvstore.in_doubt_txns))
    ops

let prop_id_keyed_matches_reference =
  Q.Test.make ~count:300
    ~name:"id-keyed lock table and store agree with the string-keyed reference"
    arb_worlds (fun worlds ->
      let e = E.create () in
      List.iter (run_world e) worlds;
      true)

let suite = [ qtest prop_id_keyed_matches_reference ]
