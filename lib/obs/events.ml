(* One packed log of protocol events per world; see events.mli.

   A row is written once and read by two views.  Its code packs the
   kind (bits 0-4), the membership bits (5: trace, 6: graph) and the
   kind's flags (bits 7 and up), so a row holds no pointer.  A row keeps
   no cause: the graph view works a transaction's causes out from its
   rows when a query reads them (Causal), so writing a graph row costs
   what writing a trace row does. *)

module Ids = Simkernel.Ids

type kind =
  | Send
  | Deliver
  | Log_write
  | Decide
  | Complete
  | Heuristic
  | Released
  | Damage
  | Crash
  | Restart
  | Note
  | Durable
  | Text
  | Vote_retry
  | Presume_no
  | Delegation_retry
  | Ack_overdue
  | Indoubt_tick
  | Arrival
  | Commit_requested
  | Lock_granted
  | Unsolicited
  | Notified

(* [kinds.(kind_code k) = k] *)
let kinds =
  [|
    Send; Deliver; Log_write; Decide; Complete; Heuristic; Released; Damage;
    Crash; Restart; Note; Durable; Text; Vote_retry; Presume_no;
    Delegation_retry; Ack_overdue; Indoubt_tick; Arrival; Commit_requested;
    Lock_granted; Unsolicited; Notified;
  |]

let kind_code = function
  | Send -> 0
  | Deliver -> 1
  | Log_write -> 2
  | Decide -> 3
  | Complete -> 4
  | Heuristic -> 5
  | Released -> 6
  | Damage -> 7
  | Crash -> 8
  | Restart -> 9
  | Note -> 10
  | Durable -> 11
  | Text -> 12
  | Vote_retry -> 13
  | Presume_no -> 14
  | Delegation_retry -> 15
  | Ack_overdue -> 16
  | Indoubt_tick -> 17
  | Arrival -> 18
  | Commit_requested -> 19
  | Lock_granted -> 20
  | Unsolicited -> 21
  | Notified -> 22

let trace_view = 1
let graph_view = 2
let views_shift = 5

(* The views a kind can appear in. *)
let shown_in = function
  | Send | Deliver | Log_write | Decide | Complete | Heuristic | Released ->
      trace_view lor graph_view
  | Damage | Crash | Restart | Note -> trace_view
  | Durable | Text | Vote_retry | Presume_no | Delegation_retry | Ack_overdue
  | Indoubt_tick | Arrival | Commit_requested | Lock_granted | Unsolicited
  | Notified ->
      graph_view

let protocol = 1 lsl 7
let forced = 1 lsl 8
let rm = 1 lsl 9
let shared = 1 lsl 10
let abort = 1 lsl 11
let pending = 1 lsl 12
let adopted = 1 lsl 13
let injected = 1 lsl 14
let timed_out = 1 lsl 15
let terminal = 1 lsl 16
let record_shift = 17
let seg_shift = 21

let record k = Wal.Log_record.code k lsl record_shift
let seg s = s lsl seg_shift

(* ------------------------------------------------------------------ *)
(* Storage                                                             *)
(* ------------------------------------------------------------------ *)

let chunk_bits = 12
let chunk_rows = 1 lsl chunk_bits

(* A chunk holds the times in an unboxed float array and the five int
   fields of each row as 32-bit words, row after row, in bytes: neither
   block is scanned by the GC, and a row's ints sit together.  -1
   stands for a missing id. *)
type chunk = { time : float array; ints : Bytes.t }

(* field offsets within a row's ints *)
let f_txn = 0
let f_who = 4
let f_peer = 8
let f_code = 12
let f_label = 16
let stride = 20

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let[@inline] get c j f = Int32.to_int (get32 c.ints ((j * stride) + f))
let[@inline] set c j f v = set32 c.ints ((j * stride) + f) (Int32.of_int v)

(* Members found by pointer before hashing. *)
let recent_size = 16

type store = {
  txns : Ids.t;
  members : Ids.t;
  recent : string array;  (* the string last given for members 0..15 *)
  labels : Ids.t;
  mutable texts : string array;  (* [text]'s strings, [n_texts] of them *)
  mutable n_texts : int;
  coded : int Ids.Tbl.t;  (* coded_label's codes -> label id *)
  mutable chunks : chunk array;
  mutable count : int;
  mutable graph_count : int;
}

type t = {
  engine : Simkernel.Engine.t option;
  mutable tracing : bool;
  mutable graphing : bool;
  mutable store : store option;  (* made with the first row or name *)
}

let create ?engine () = { engine; tracing = false; graphing = false; store = None }
let engine t = t.engine
let tracing t = t.tracing
let set_tracing t on = t.tracing <- on
let graphing t = t.graphing
let set_graphing t on = t.graphing <- on
let recording t = t.tracing || t.graphing

(* A string no caller holds, so an unused [recent] slot never matches. *)
let no_name = String.make 1 '\000'

let[@inline] store t =
  match t.store with
  | Some s -> s
  | None ->
      let s =
        {
          txns =
            (match t.engine with
            | Some e -> Simkernel.Engine.ids e
            | None -> Ids.create ());
          members = Ids.create ();
          recent = Array.make recent_size no_name;
          labels = Ids.create ();
          texts = [||];
          n_texts = 0;
          coded = Ids.Tbl.create ~dummy:(-1);
          chunks = [||];
          count = 0;
          graph_count = 0;
        }
      in
      t.store <- Some s;
      s

(* ------------------------------------------------------------------ *)
(* Names                                                               *)
(* ------------------------------------------------------------------ *)

let txn t name = Ids.intern (store t).txns name

let find_txn t name =
  match t.store with None -> -1 | Some s -> Ids.find s.txns name

let txn_name t id = Ids.name (store t).txns id

let rec scan_recent recent name i n =
  if i = n then -1
  else if recent.(i) == name then i
  else scan_recent recent name (i + 1) n

let member t name =
  let s = store t in
  match
    scan_recent s.recent name 0 (min recent_size (Ids.count s.members))
  with
  | -1 ->
      let id = Ids.intern s.members name in
      if id < recent_size then s.recent.(id) <- name;
      id
  | id -> id

let find_member t name =
  match t.store with None -> -1 | Some s -> Ids.find s.members name

let member_name t id = Ids.name (store t).members id
let label t text = Ids.intern (store t).labels text

let coded_label t code build x =
  let s = store t in
  if code < 0 then Ids.intern s.labels (build x)
  else
    let id = Ids.Tbl.find s.coded code in
    if id >= 0 then id
    else begin
      let id = Ids.intern s.labels (build x) in
      Ids.Tbl.replace s.coded code id;
      id
    end

(* Texts take the ids below -1, so one label column holds both. *)
let text t str =
  let s = store t in
  let i = s.n_texts in
  if i = Array.length s.texts then begin
    let bigger = Array.make (max 64 (2 * i)) "" in
    Array.blit s.texts 0 bigger 0 i;
    s.texts <- bigger
  end;
  s.texts.(i) <- str;
  s.n_texts <- i + 1;
  -2 - i

let label_name t id =
  let s = store t in
  if id >= 0 then Ids.name s.labels id else s.texts.(-2 - id)

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let[@inline] chunk s r = s.chunks.(r lsr chunk_bits)
let[@inline] slot r = r land (chunk_rows - 1)

(* Append a row with every column but the time. *)
let[@inline] add s ~views kind ~txn ~who ~peer ~label ~flags =
  let r = s.count in
  let j = slot r in
  if j = 0 then begin
    let c =
      { time = Array.create_float chunk_rows; ints = Bytes.create (chunk_rows * stride) }
    in
    let n = r lsr chunk_bits in
    if n = Array.length s.chunks then begin
      let bigger = Array.make (max 16 (2 * n)) c in
      Array.blit s.chunks 0 bigger 0 n;
      s.chunks <- bigger
    end
    else s.chunks.(n) <- c
  end;
  let c = chunk s r in
  set c j f_txn txn;
  set c j f_who who;
  set c j f_peer peer;
  set c j f_code (kind_code kind lor (views lsl views_shift) lor flags);
  set c j f_label label;
  s.count <- r + 1;
  if views land graph_view <> 0 then s.graph_count <- s.graph_count + 1;
  r

let[@inline] views_now t kind ~txn =
  let v =
    shown_in kind
    land ((if t.tracing then trace_view else 0)
         lor if t.graphing then graph_view else 0)
  in
  if txn < 0 then v land trace_view else v

let emit t kind ~txn ~who ~peer ~label ~flags =
  let views = views_now t kind ~txn in
  if views <> 0 then begin
    let s = store t in
    let r = add s ~views kind ~txn ~who ~peer ~label ~flags in
    (chunk s r).time.(slot r) <-
      (match t.engine with Some e -> Simkernel.Engine.now e | None -> 0.0)
  end

let emit_at t ~views kind ~time ~txn ~who ~peer ~label ~flags =
  let views = views land views_now t kind ~txn in
  if views <> 0 then begin
    let s = store t in
    let r = add s ~views kind ~txn ~who ~peer ~label ~flags in
    (chunk s r).time.(slot r) <- time
  end

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

type row = {
  time : float;
  txn_id : int;
  who : int;
  peer : int;
  kind : kind;
  flags : int;
  label_id : int;
  in_trace : bool;
  in_graph : bool;
}

let rows t = match t.store with None -> 0 | Some s -> s.count

let row t r =
  let s = store t in
  let c = chunk s r and j = slot r in
  let code = get c j f_code in
  {
    time = c.time.(j);
    txn_id = get c j f_txn;
    who = get c j f_who;
    peer = get c j f_peer;
    kind = kinds.(code land 31);
    flags = code;
    label_id = get c j f_label;
    in_trace = code land (trace_view lsl views_shift) <> 0;
    in_graph = code land (graph_view lsl views_shift) <> 0;
  }

let graph_txn t r =
  let s = store t in
  let c = chunk s r and j = slot r in
  if get c j f_code land (graph_view lsl views_shift) <> 0 then get c j f_txn
  else -1

let record_kind r = Wal.Log_record.of_code ((r.flags lsr record_shift) land 15)
let seg_of r = (r.flags lsr seg_shift) land 7
let graph_rows t = match t.store with None -> 0 | Some s -> s.graph_count
let members t = match t.store with None -> 0 | Some s -> Ids.count s.members
