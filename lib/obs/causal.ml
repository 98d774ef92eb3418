(* Deterministic per-transaction causal event graph; see causal.mli.

   Everything here is driven by the simulator's virtual clock: node ids
   are assigned in record order and the simulation itself is
   deterministic, so the graph — and every path extracted from it — is
   reproducible bit-for-bit for a given seed.

   The recorder never feeds anything back into the simulation: with the
   mode [Off] every entry point returns immediately without allocating,
   which is what keeps counter-only harnesses (chaos, sweeps) byte-
   identical whether or not this module is linked in.

   Storage.  Transaction and member names are interned to dense ids.  A
   node is a row across fixed-size column chunks, so recording one is a
   few array writes, and growth appends a chunk without copying a row.
   Per-transaction state sits in arrays indexed by transaction id.  A
   send or delivery row keeps the bundle label and the peer; its text
   ("send L -> dst") is built only when a query turns the row into a
   {!node}. *)

module Ids = Simkernel.Ids

type seg = Compute | Log_wait | Msg_wait | Lock_wait | In_doubt

let seg_name = function
  | Compute -> "compute"
  | Log_wait -> "log-wait"
  | Msg_wait -> "msg-wait"
  | Lock_wait -> "lock-wait"
  | In_doubt -> "in-doubt"

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

(* What a row is: a recorded event, one constructor per seg, whose label
   is its text; or a message end (a [Compute] send or a [Msg_wait]
   delivery), whose text is built from the label and the peer.  Every
   constructor is constant, so a kind column holds no pointer. *)
type kind = Compute_ev | Log_ev | Msg_ev | Lock_ev | In_doubt_ev | Sent | Delivered

let kind_of_seg = function
  | Compute -> Compute_ev
  | Log_wait -> Log_ev
  | Msg_wait -> Msg_ev
  | Lock_wait -> Lock_ev
  | In_doubt -> In_doubt_ev

let chunk_bits = 12
let chunk_rows = 1 lsl chunk_bits

(* One column slice per node field; a node never has more than two cause
   candidates: its chain predecessor, plus either the [link_from] chain or
   the matched send.  -1 stands for a missing cause or peer. *)
type chunk = {
  time : float array;
  txn : int array;
  who : int array;
  kind : kind array;
  peer : int array;
  label : string array;
  cause1 : int array;
  cause2 : int array;
}

(* Unmatched sends of one transaction, newest first. *)
type inflight =
  | Idle
  | In_flight of {
      src : int;
      dst : int;
      label : string;
      id : int;
      older : inflight;
    }

type graph = {
  txns : Ids.t;
  members : Ids.t;
  mutable chunks : chunk array;
  mutable count : int;
  (* indexed by txn id: the newest node, the marked terminal (or -1), the
     newest node of each member's chain (indexed by member id), and the
     unmatched sends *)
  mutable latest : int array;
  mutable terminal : int array;
  mutable chains : int array array;
  mutable inflight : inflight array;
}

(* The graph is made on the first recorded event: a recorder that stays
   [Off] allocates no column. *)
type t = { mutable mode : mode; mutable graph : graph option }

let create ?(mode = Off) () = { mode; graph = None }
let mode t = t.mode
let set_mode t m = t.mode <- m
let enabled t = match t.mode with Off -> false | Graph -> true

let graph t =
  match t.graph with
  | Some g -> g
  | None ->
      let g =
        {
          txns = Ids.create ();
          members = Ids.create ();
          chunks = [||];
          count = 0;
          latest = [||];
          terminal = [||];
          chains = [||];
          inflight = [||];
        }
      in
      t.graph <- Some g;
      g

let grow a fill =
  let b = Array.make (max 64 (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The id of [txn], with room for its state. *)
let txn_id g txn =
  let x = Ids.intern g.txns txn in
  if x >= Array.length g.latest then begin
    g.latest <- grow g.latest (-1);
    g.terminal <- grow g.terminal (-1);
    g.chains <- grow g.chains [||];
    g.inflight <- grow g.inflight Idle
  end;
  x

let chain_last g x w =
  let heads = g.chains.(x) in
  if w < Array.length heads then heads.(w) else -1

let set_chain_last g x w id =
  let heads = g.chains.(x) in
  if w < Array.length heads then heads.(w) <- id
  else begin
    let bigger = Array.make (max 8 (Ids.count g.members)) (-1) in
    Array.blit heads 0 bigger 0 (Array.length heads);
    bigger.(w) <- id;
    g.chains.(x) <- bigger
  end

let chunk g id = g.chunks.(id lsr chunk_bits)
let row id = id land (chunk_rows - 1)
let time_of g id = (chunk g id).time.(row id)

let add g ~x ~w ~time ~kind ~peer ~label ~cause1 ~cause2 =
  let id = g.count in
  let j = row id in
  if j = 0 then begin
    let c =
      {
        time = Array.create_float chunk_rows;
        txn = Array.make chunk_rows 0;
        who = Array.make chunk_rows 0;
        kind = Array.make chunk_rows Sent;
        peer = Array.make chunk_rows 0;
        label = Array.make chunk_rows "";
        cause1 = Array.make chunk_rows 0;
        cause2 = Array.make chunk_rows 0;
      }
    in
    let n = id lsr chunk_bits in
    if n = Array.length g.chunks then g.chunks <- grow g.chunks c
    else g.chunks.(n) <- c
  end;
  let c = chunk g id in
  c.time.(j) <- time;
  c.txn.(j) <- x;
  c.who.(j) <- w;
  c.kind.(j) <- kind;
  c.peer.(j) <- peer;
  c.label.(j) <- label;
  c.cause1.(j) <- cause1;
  c.cause2.(j) <- cause2;
  g.count <- id + 1;
  set_chain_last g x w id;
  g.latest.(x) <- id;
  id

let record ?(terminal = false) ?link_from t ~txn ~who ~time ~seg label =
  match t.mode with
  | Off -> ()
  | Graph ->
      let g = graph t in
      let x = txn_id g txn in
      let w = Ids.intern g.members who in
      let linked =
        match link_from with
        | None -> -1
        | Some from ->
            let f = Ids.find g.members from in
            if f < 0 || f = w then -1 else chain_last g x f
      in
      let id =
        add g ~x ~w ~time ~kind:(kind_of_seg seg) ~peer:(-1) ~label
          ~cause1:(chain_last g x w) ~cause2:linked
      in
      if terminal then g.terminal.(x) <- id

let send t ~txn ~src ~dst ~time ~label =
  match t.mode with
  | Off -> ()
  | Graph ->
      let g = graph t in
      let x = txn_id g txn in
      let s = Ids.intern g.members src in
      let d = Ids.intern g.members dst in
      let id =
        add g ~x ~w:s ~time ~kind:Sent ~peer:d ~label
          ~cause1:(chain_last g x s) ~cause2:(-1)
      in
      g.inflight.(x) <-
        In_flight { src = s; dst = d; label; id; older = g.inflight.(x) }

(* Match a delivery to the newest unmatched send not in its future: under
   retransmission the delivered copy is most plausibly the latest one, and
   a dropped older copy must not soak up the match a younger send owns. *)
let rec newest_send g ~s ~d ~label ~time = function
  | Idle -> -1
  | In_flight m ->
      if m.src = s && m.dst = d && String.equal m.label label
         && time_of g m.id <= time
      then m.id
      else newest_send g ~s ~d ~label ~time m.older

let rec without id = function
  | Idle -> Idle
  | In_flight m ->
      if m.id = id then m.older else In_flight { m with older = without id m.older }

let deliver t ~txn ~src ~dst ~time ~label =
  match t.mode with
  | Off -> ()
  | Graph ->
      let g = graph t in
      let x = txn_id g txn in
      let s = Ids.intern g.members src in
      let d = Ids.intern g.members dst in
      let sent = newest_send g ~s ~d ~label ~time g.inflight.(x) in
      if sent >= 0 then g.inflight.(x) <- without sent g.inflight.(x);
      ignore
        (add g ~x ~w:d ~time ~kind:Delivered ~peer:s ~label
           ~cause1:(chain_last g x d) ~cause2:sent)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let node_count t = match t.graph with None -> 0 | Some g -> g.count

(* The row [id] as a node, its text built here. *)
let node g id =
  let c = chunk g id and j = row id in
  let member i = Ids.name g.members i in
  let seg, label =
    match c.kind.(j) with
    | Compute_ev -> (Compute, c.label.(j))
    | Log_ev -> (Log_wait, c.label.(j))
    | Msg_ev -> (Msg_wait, c.label.(j))
    | Lock_ev -> (Lock_wait, c.label.(j))
    | In_doubt_ev -> (In_doubt, c.label.(j))
    | Sent ->
        (Compute, String.concat "" [ "send "; c.label.(j); " -> "; member c.peer.(j) ])
    | Delivered ->
        ( Msg_wait,
          String.concat "" [ "deliver "; c.label.(j); " from "; member c.peer.(j) ] )
  in
  {
    cn_id = id;
    cn_txn = Ids.name g.txns c.txn.(j);
    cn_who = member c.who.(j);
    cn_time = c.time.(j);
    cn_seg = seg;
    cn_label = label;
    cn_causes = List.filter (fun i -> i >= 0) [ c.cause1.(j); c.cause2.(j) ];
  }

let txn_nodes t ~txn =
  match t.graph with
  | None -> []
  | Some g ->
      let x = Ids.find g.txns txn in
      let rec collect id acc =
        if id < 0 then acc
        else if (chunk g id).txn.(row id) = x then collect (id - 1) (node g id :: acc)
        else collect (id - 1) acc
      in
      if x < 0 then []
      else
        List.sort
          (fun a b ->
            match Float.compare a.cn_time b.cn_time with
            | 0 -> Int.compare a.cn_id b.cn_id
            | c -> c)
          (collect (g.count - 1) [])

type hop = { h_node : node; h_dt : float }

(* The binding cause of a node is the candidate that finished last: the
   dependency the node actually waited for.  Ties break toward the higher
   id (recorded later at the same instant), deterministically.  -1 for a
   node with no cause. *)
let binding_cause g id =
  let c = chunk g id and j = row id in
  let c1 = c.cause1.(j) and c2 = c.cause2.(j) in
  if c1 < 0 then c2
  else if c2 < 0 then c1
  else
    let t1 = time_of g c1 and t2 = time_of g c2 in
    if t2 > t1 || (t2 = t1 && c2 > c1) then c2 else c1

let critical_path t ~txn =
  match t.graph with
  | None -> None
  | Some g -> (
      match Ids.find g.txns txn with
      | -1 -> None
      | x ->
          let rec walk acc id =
            let n = node g id in
            match binding_cause g id with
            | -1 -> { h_node = n; h_dt = 0.0 } :: acc
            | c -> walk ({ h_node = n; h_dt = n.cn_time -. time_of g c } :: acc) c
          in
          let marked = g.terminal.(x) in
          Some (walk [] (if marked >= 0 then marked else g.latest.(x))))

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
