(* Deterministic per-transaction causal event graph; see causal.mli.

   Everything here is driven by the simulator's virtual clock: node ids
   are assigned in record order and the simulation itself is
   deterministic, so the graph — and every path extracted from it — is
   reproducible bit-for-bit for a given seed.

   The recorder never feeds anything back into the simulation: with the
   mode [Off] every entry point returns immediately without allocating,
   which is what keeps counter-only harnesses (chaos, sweeps) byte-
   identical whether or not this module is linked in.

   Storage.  The graph is the graph view of an {!Events} log: its nodes
   are the log's graph rows.  A row keeps no cause and no text; a query
   replays one transaction's rows to link them ([linked]) and builds a
   node's text from the row's kind, codes and peer.  The string entry
   points below intern their names and label and write the same rows the
   participants' hooks write by id. *)

type seg = Compute | Log_wait | Msg_wait | Lock_wait | In_doubt

let seg_name = function
  | Compute -> "compute"
  | Log_wait -> "log-wait"
  | Msg_wait -> "msg-wait"
  | Lock_wait -> "lock-wait"
  | In_doubt -> "in-doubt"

(* the codes of {!Events.seg} *)
let segs = [| Compute; Log_wait; Msg_wait; Lock_wait; In_doubt |]

let seg_code = function
  | Compute -> 0
  | Log_wait -> 1
  | Msg_wait -> 2
  | Lock_wait -> 3
  | In_doubt -> 4

type mode = Off | Graph

type node = {
  cn_id : int;
  cn_txn : string;
  cn_who : string;
  cn_time : float;
  cn_seg : seg;
  cn_label : string;
  cn_causes : int list;  (** candidate causes; binding one picked per path *)
}

type t = Events.t

let create ?(mode = Off) () =
  let t = Events.create () in
  Events.set_graphing t (mode = Graph);
  t

let mode t = if Events.graphing t then Graph else Off
let set_mode t m = Events.set_graphing t (m = Graph)
let enabled = Events.graphing

let record ?(terminal = false) ?link_from t ~txn ~who ~time ~seg label =
  if Events.graphing t then begin
    let x = Events.txn t txn in
    let w = Events.member t who in
    let peer =
      match link_from with None -> -1 | Some from -> Events.find_member t from
    in
    Events.emit_at t ~views:Events.graph_view Text ~time ~txn:x ~who:w ~peer
      ~label:(Events.label t label)
      ~flags:(Events.seg (seg_code seg) lor if terminal then Events.terminal else 0)
  end

let message kind t ~txn ~src ~dst ~time ~label =
  if Events.graphing t then begin
    let x = Events.txn t txn in
    let s = Events.member t src in
    let d = Events.member t dst in
    let who, peer = match kind with Events.Send -> (s, d) | _ -> (d, s) in
    Events.emit_at t ~views:Events.graph_view kind ~time ~txn:x ~who ~peer
      ~label:(Events.label t label) ~flags:0
  end

let send = message Events.Send
let deliver = message Events.Deliver

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let node_count = Events.graph_rows

let outcome (r : Events.row) =
  if r.flags land Events.abort <> 0 then "abort" else "commit"

let record_name r = Wal.Log_record.kind_to_string (Events.record_kind r)
let flag (r : Events.row) f = r.flags land f <> 0

(* The wait class and text of graph row [r]. *)
let seg_and_label t (r : Events.row) =
  let member i = Events.member_name t i in
  let label () = Events.label_name t r.label_id in
  let cat = String.concat "" in
  match r.kind with
  | Send -> (Compute, cat [ "send "; label (); " -> "; member r.peer ])
  | Deliver -> (Msg_wait, cat [ "deliver "; label (); " from "; member r.peer ])
  | Log_write ->
      ( Compute,
        if flag r Events.forced then "force " ^ record_name r
        else if flag r Events.shared then
          cat [ "log append "; record_name r; " (shared log)" ]
        else "log append " ^ record_name r )
  | Durable -> (Log_wait, record_name r ^ " durable")
  | Decide ->
      ( Compute,
        if flag r Events.adopted then "adopts delegated outcome " ^ outcome r
        else "decides " ^ outcome r )
  | Complete -> (Compute, "completes: " ^ outcome r)
  | Heuristic ->
      ( In_doubt,
        cat
          [
            "HEURISTIC "; outcome r;
            (if flag r Events.injected then " (injected)" else "");
          ] )
  | Released -> (Compute, "releases locks")
  | Text | Note | Damage | Crash | Restart -> (segs.(Events.seg_of r), label ())
  | Vote_retry -> (In_doubt, "vote timeout: retransmitting Prepare")
  | Presume_no -> (In_doubt, "vote timeout: presuming NO from silent members")
  | Delegation_retry -> (In_doubt, "delegation unanswered: retransmitting")
  | Ack_overdue ->
      (In_doubt, "ack overdue: retransmitting decision to " ^ member r.peer)
  | Indoubt_tick -> (In_doubt, "in doubt: recovery tick")
  | Arrival -> (Compute, "arrival")
  | Commit_requested -> (Compute, "commit requested")
  | Lock_granted ->
      ( segs.(Events.seg_of r),
        cat [ "lock granted: "; label (); "@"; member r.peer ] )
  | Unsolicited -> (Compute, "unsolicited vote trigger")
  | Notified ->
      if flag r Events.timed_out then
        (Lock_wait, cat [ "application notified: "; outcome r; " (lock-wait timeout)" ])
      else (Compute, "application notified: " ^ outcome r)

(* A graph row of one transaction, with its node id (its ordinal among
   graph rows) and its two cause rows, -1 for none. *)
type linked = {
  l_row : int;
  l_id : int;
  l_r : Events.row;
  l_cause1 : int;
  l_cause2 : int;
}

(* Take the newest unmatched send from [src] to [dst] with [label] not
   after [time] out of [sends] (newest first): under retransmission the
   delivered copy is most plausibly the latest one, and a dropped older
   copy must not soak up the match a younger send owns. *)
let rec take_send ~src ~dst ~label ~time = function
  | [] -> (-1, [])
  | ((r, (m : Events.row)) as send) :: older ->
      if m.who = src && m.peer = dst && m.label_id = label && m.time <= time then
        (r, older)
      else
        let found, rest = take_send ~src ~dst ~label ~time older in
        (found, send :: rest)

(* Every graph row of transaction [x], oldest first, with its causes:
   the previous row of its (transaction, member) chain, plus, for a
   delivery, the send it matches, and for a [Text] or [Unsolicited] row
   the last row of its [peer]'s chain (the [link_from] edge).  One pass
   over the log replays the chains and the unmatched sends. *)
let linked t x =
  let heads = Array.make (Events.members t) (-1) in
  let sends = ref [] and acc = ref [] and id = ref 0 in
  for r = 0 to Events.rows t - 1 do
    match Events.graph_txn t r with
    | -1 -> ()
    | y ->
        if y = x then begin
          let row = Events.row t r in
          let w = row.who in
          let cause2 =
            match row.kind with
            | Deliver ->
                let sent, rest =
                  take_send ~src:row.peer ~dst:w ~label:row.label_id ~time:row.time
                    !sends
                in
                sends := rest;
                sent
            | Send ->
                sends := (r, row) :: !sends;
                -1
            | Text | Unsolicited ->
                if row.peer < 0 || row.peer = w then -1 else heads.(row.peer)
            | _ -> -1
          in
          acc :=
            { l_row = r; l_id = !id; l_r = row; l_cause1 = heads.(w); l_cause2 = cause2 }
            :: !acc;
          heads.(w) <- r
        end;
        incr id
  done;
  List.rev !acc

(* The linked rows of [txn] and a lookup by row, or [None]. *)
let linked_txn t txn =
  match Events.find_txn t txn with
  | -1 -> None
  | x -> (
      match linked t x with
      | [] -> None
      | ls ->
          let by_row = Hashtbl.create 64 in
          List.iter (fun l -> Hashtbl.replace by_row l.l_row l) ls;
          Some (ls, Hashtbl.find by_row))

(* [l] as a node, its text built here. *)
let node t find l =
  let seg, label = seg_and_label t l.l_r in
  let id c = if c < 0 then None else Some (find c).l_id in
  {
    cn_id = l.l_id;
    cn_txn = Events.txn_name t l.l_r.txn_id;
    cn_who = Events.member_name t l.l_r.who;
    cn_time = l.l_r.time;
    cn_seg = seg;
    cn_label = label;
    cn_causes = List.filter_map id [ l.l_cause1; l.l_cause2 ];
  }

let txn_nodes t ~txn =
  match linked_txn t txn with
  | None -> []
  | Some (ls, find) ->
      List.sort
        (fun a b ->
          match Float.compare a.cn_time b.cn_time with
          | 0 -> Int.compare a.cn_id b.cn_id
          | c -> c)
        (List.map (node t find) ls)

type hop = { h_node : node; h_dt : float }

(* The binding cause of a node is the candidate that finished last: the
   dependency the node actually waited for.  Ties break toward the higher
   row (recorded later at the same instant), deterministically.  -1 for a
   node with no cause. *)
let binding_cause find l =
  let c1 = l.l_cause1 and c2 = l.l_cause2 in
  if c1 < 0 then c2
  else if c2 < 0 then c1
  else
    let t1 = (find c1).l_r.time and t2 = (find c2).l_r.time in
    if t2 > t1 || (t2 = t1 && c2 > c1) then c2 else c1

(* The path ends at the row last marked terminal, else the newest. *)
let critical_path t ~txn =
  match linked_txn t txn with
  | None -> None
  | Some (ls, find) ->
      let rec walk acc l =
        let n = node t find l in
        match binding_cause find l with
        | -1 -> { h_node = n; h_dt = 0.0 } :: acc
        | c ->
            let cl = find c in
            walk ({ h_node = n; h_dt = n.cn_time -. cl.l_r.time } :: acc) cl
      in
      let marked = List.filter (fun l -> l.l_r.flags land Events.terminal <> 0) ls in
      match List.rev marked, List.rev ls with
      | m :: _, _ | [], m :: _ -> Some (walk [] m)
      | [], [] -> None

type segments = {
  sg_log : float;
  sg_msg : float;
  sg_lock : float;
  sg_in_doubt : float;
  sg_compute : float;
}

let zero_segments =
  { sg_log = 0.0; sg_msg = 0.0; sg_lock = 0.0; sg_in_doubt = 0.0; sg_compute = 0.0 }

let path_segments hops =
  List.fold_left
    (fun s { h_node; h_dt } ->
      match h_node.cn_seg with
      | Log_wait -> { s with sg_log = s.sg_log +. h_dt }
      | Msg_wait -> { s with sg_msg = s.sg_msg +. h_dt }
      | Lock_wait -> { s with sg_lock = s.sg_lock +. h_dt }
      | In_doubt -> { s with sg_in_doubt = s.sg_in_doubt +. h_dt }
      | Compute -> { s with sg_compute = s.sg_compute +. h_dt })
    zero_segments hops

let segments_total s =
  s.sg_log +. s.sg_msg +. s.sg_lock +. s.sg_in_doubt +. s.sg_compute

let segments_list s =
  [
    ("log-wait", s.sg_log);
    ("msg-wait", s.sg_msg);
    ("lock-wait", s.sg_lock);
    ("in-doubt", s.sg_in_doubt);
    ("compute", s.sg_compute);
  ]
