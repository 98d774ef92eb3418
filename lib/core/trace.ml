(** Event trace of a simulation run.

    The trace is the single source of truth for the quantities the paper
    tabulates: protocol message flows, log writes and forced log writes
    (transaction-manager records only, per the paper's counting convention),
    plus the timeline needed to render the figures as ASCII sequence
    diagrams. *)

type event =
  | Send of {
      time : float;
      src : string;
      dst : string;
      label : string;
      protocol : bool;
          (** false for application data (implied acks, next-transaction
              data): those messages are not 2PC flows *)
    }
  | Deliver of { time : float; src : string; dst : string; label : string }
  | Log_write of {
      time : float;
      node : string;
      kind : Wal.Log_record.kind;
      forced : bool;
      rm : bool;  (** resource-manager record (excluded from paper counts) *)
    }
  | Decide of { time : float; node : string; outcome : Types.outcome }
  | Complete of {
      time : float;
      node : string;
      outcome : Types.outcome;
      pending : bool;  (** wait-for-outcome: "outcome pending" indication *)
    }
  | Heuristic of { time : float; node : string; action : Types.outcome }
  | Damage_detected of {
      time : float;
      node : string;  (** damaged participant *)
      reported_to : string;  (** "" when the report is lost *)
    }
  | Locks_released of { time : float; node : string }
  | Crash of { time : float; node : string }
  | Restart of { time : float; node : string }
  | Note of { time : float; node : string; text : string }

(* The trace is a view of an event log (Obs.Events): its events are the
   log's trace rows from [first] on, turned back into [event] values when
   a query reads them.  The aggregate counters the paper tabulates are
   kept here, incrementally: the throughput engines read them once per
   run, and with [keep_events = false] they are the only thing a trace
   costs. *)
type t = {
  log : Obs.Events.t;
  mutable first : int;  (* the log's row where the view starts *)
  mutable n_flows : int;
  mutable n_data_flows : int;
  mutable n_tm_writes : int;
  mutable n_tm_forced : int;
}

let create ?(keep_events = true) ?engine () =
  let log = Obs.Events.create ?engine () in
  Obs.Events.set_tracing log keep_events;
  { log; first = 0; n_flows = 0; n_data_flows = 0; n_tm_writes = 0; n_tm_forced = 0 }

let log t = t.log
let keeps_events t = Obs.Events.tracing t.log

let count_send t ~protocol =
  if protocol then t.n_flows <- t.n_flows + 1
  else t.n_data_flows <- t.n_data_flows + 1

let count_tm_write t ~forced =
  t.n_tm_writes <- t.n_tm_writes + 1;
  if forced then t.n_tm_forced <- t.n_tm_forced + 1

(* ------------------------------------------------------------------ *)
(* Writing by id                                                       *)
(* ------------------------------------------------------------------ *)

module Ev = Obs.Events

let bit b flag = if b then flag else 0
let outcome_flag = function Types.Committed -> 0 | Types.Aborted -> Ev.abort

let send t ~txn ~src ~dst ~label ~protocol =
  count_send t ~protocol;
  Ev.emit t.log Ev.Send ~txn ~who:src ~peer:dst ~label ~flags:(bit protocol Ev.protocol)

let deliver t ~txn ~src ~dst ~label =
  Ev.emit t.log Ev.Deliver ~txn ~who:dst ~peer:src ~label ~flags:0

let log_write t ~txn ~who kind ~forced ~shared =
  count_tm_write t ~forced;
  Ev.emit t.log Ev.Log_write ~txn ~who ~peer:(-1) ~label:(-1)
    ~flags:(Ev.record kind lor bit forced Ev.forced lor bit shared Ev.shared)

let decide t ~txn ~who outcome ~adopted =
  Ev.emit t.log Ev.Decide ~txn ~who ~peer:(-1) ~label:(-1)
    ~flags:(outcome_flag outcome lor bit adopted Ev.adopted)

let complete t ~txn ~who outcome ~pending =
  Ev.emit t.log Ev.Complete ~txn ~who ~peer:(-1) ~label:(-1)
    ~flags:(outcome_flag outcome lor bit pending Ev.pending)

let heuristic t ~txn ~who action ~injected =
  Ev.emit t.log Ev.Heuristic ~txn ~who ~peer:(-1) ~label:(-1)
    ~flags:(outcome_flag action lor bit injected Ev.injected)

let locks_released t ~txn ~who =
  Ev.emit t.log Ev.Released ~txn ~who ~peer:(-1) ~label:(-1) ~flags:0

let crash t ~who = Ev.emit t.log Ev.Crash ~txn:(-1) ~who ~peer:(-1) ~label:(-1) ~flags:0
let restart t ~who = Ev.emit t.log Ev.Restart ~txn:(-1) ~who ~peer:(-1) ~label:(-1) ~flags:0

let note t ~who text =
  Ev.emit t.log Ev.Note ~txn:(-1) ~who ~peer:(-1) ~label:(Ev.text t.log text) ~flags:0

let damage t ~node ~reported_to =
  let l = t.log in
  Ev.emit l Ev.Damage ~txn:(-1) ~who:(Ev.member l node)
    ~peer:(if reported_to = "" then -1 else Ev.member l reported_to)
    ~label:(-1) ~flags:0

(* Synthetic cost on hardware the simulation does not model as nodes
   (the BFT replica ensemble): sends and forced writes between [node] and
   its "!replica" pseudo-endpoint, which no diagram draws, so the flow and
   forced-write counters (and so Tables 2-4) see them.  Rows without a
   transaction: trace-only, and none when off. *)
let charge t ~node ~flows ~forces kind =
  let l = t.log and on = keeps_events t in
  let replica = if on then Ev.member l (node ^ "!replica") else -1 in
  let label = if on then Ev.label l "replica-quorum" else -1 in
  let src = if on then Ev.member l node else -1 in
  for _ = 1 to flows do
    send t ~txn:(-1) ~src ~dst:replica ~label ~protocol:true
  done;
  for _ = 1 to forces do
    log_write t ~txn:(-1) ~who:replica kind ~forced:true ~shared:false
  done

(* [e] as a trace row, its names interned. *)
let record t e =
  (match e with
  | Send { protocol; _ } -> count_send t ~protocol
  | Log_write { rm = false; forced; _ } -> count_tm_write t ~forced
  | _ -> ());
  if keeps_events t then begin
    let l = t.log in
    let m = Ev.member l in
    let row kind ~time ~who ~peer ~label flags =
      Ev.emit_at l ~views:Ev.trace_view kind ~time ~txn:(-1) ~who ~peer ~label ~flags
    in
    match e with
    | Send { time; src; dst; label; protocol } ->
        row Ev.Send ~time ~who:(m src) ~peer:(m dst) ~label:(Ev.label l label)
          (bit protocol Ev.protocol)
    | Deliver { time; src; dst; label } ->
        row Ev.Deliver ~time ~who:(m dst) ~peer:(m src) ~label:(Ev.label l label) 0
    | Log_write { time; node; kind; forced; rm } ->
        row Ev.Log_write ~time ~who:(m node) ~peer:(-1) ~label:(-1)
          (Ev.record kind lor bit forced Ev.forced lor bit rm Ev.rm)
    | Decide { time; node; outcome } ->
        row Ev.Decide ~time ~who:(m node) ~peer:(-1) ~label:(-1) (outcome_flag outcome)
    | Complete { time; node; outcome; pending } ->
        row Ev.Complete ~time ~who:(m node) ~peer:(-1) ~label:(-1)
          (outcome_flag outcome lor bit pending Ev.pending)
    | Heuristic { time; node; action } ->
        row Ev.Heuristic ~time ~who:(m node) ~peer:(-1) ~label:(-1) (outcome_flag action)
    | Damage_detected { time; node; reported_to } ->
        row Ev.Damage ~time ~who:(m node)
          ~peer:(if reported_to = "" then -1 else m reported_to)
          ~label:(-1) 0
    | Locks_released { time; node } ->
        row Ev.Released ~time ~who:(m node) ~peer:(-1) ~label:(-1) 0
    | Crash { time; node } -> row Ev.Crash ~time ~who:(m node) ~peer:(-1) ~label:(-1) 0
    | Restart { time; node } -> row Ev.Restart ~time ~who:(m node) ~peer:(-1) ~label:(-1) 0
    | Note { time; node; text } ->
        row Ev.Note ~time ~who:(m node) ~peer:(-1) ~label:(Ev.text l text) 0
  end

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

(* Trace row [r] as the event it records. *)
let event_of l (r : Ev.row) =
  let time = r.time and node = Ev.member_name l r.who in
  let flag f = r.flags land f <> 0 in
  let outcome = if flag Ev.abort then Types.Aborted else Types.Committed in
  match r.kind with
  | Ev.Send ->
      Send
        {
          time;
          src = node;
          dst = Ev.member_name l r.peer;
          label = Ev.label_name l r.label_id;
          protocol = flag Ev.protocol;
        }
  | Ev.Deliver ->
      Deliver
        {
          time;
          src = Ev.member_name l r.peer;
          dst = node;
          label = Ev.label_name l r.label_id;
        }
  | Ev.Log_write ->
      Log_write
        { time; node; kind = Ev.record_kind r; forced = flag Ev.forced; rm = flag Ev.rm }
  | Ev.Decide -> Decide { time; node; outcome }
  | Ev.Complete -> Complete { time; node; outcome; pending = flag Ev.pending }
  | Ev.Heuristic -> Heuristic { time; node; action = outcome }
  | Ev.Damage ->
      Damage_detected
        {
          time;
          node;
          reported_to = (if r.peer < 0 then "" else Ev.member_name l r.peer);
        }
  | Ev.Released -> Locks_released { time; node }
  | Ev.Crash -> Crash { time; node }
  | Ev.Restart -> Restart { time; node }
  | Ev.Note -> Note { time; node; text = Ev.label_name l r.label_id }
  | Ev.Durable | Ev.Text | Ev.Vote_retry | Ev.Presume_no | Ev.Delegation_retry | Ev.Ack_overdue
  | Ev.Indoubt_tick | Ev.Arrival | Ev.Commit_requested | Ev.Lock_granted | Ev.Unsolicited
  | Ev.Notified ->
      invalid_arg "Trace: a graph-only row in the trace view"

let events t =
  let l = t.log in
  let rec collect r acc =
    if r < t.first then acc
    else
      let row = Ev.row l r in
      collect (r - 1) (if row.in_trace then event_of l row :: acc else acc)
  in
  collect (Ev.rows l - 1) []

(* The log keeps its rows: the causal graph still reads them. *)
let clear t =
  t.first <- Ev.rows t.log;
  t.n_flows <- 0;
  t.n_data_flows <- 0;
  t.n_tm_writes <- 0;
  t.n_tm_forced <- 0

let event_time = function
  | Send { time; _ }
  | Deliver { time; _ }
  | Log_write { time; _ }
  | Decide { time; _ }
  | Complete { time; _ }
  | Heuristic { time; _ }
  | Damage_detected { time; _ }
  | Locks_released { time; _ }
  | Crash { time; _ }
  | Restart { time; _ }
  | Note { time; _ } ->
      time

(* ------------------------------------------------------------------ *)
(* Paper-convention counting                                           *)
(* ------------------------------------------------------------------ *)

let flows t = t.n_flows
let data_flows t = t.n_data_flows

let count_log_writes ?(include_rm = false) ?(forced_only = false) t =
  List.length
    (List.filter
       (function
         | Log_write { rm; forced; _ } ->
             (include_rm || not rm) && ((not forced_only) || forced)
         | _ -> false)
       (events t))

let tm_writes t = t.n_tm_writes
let tm_forced_writes t = t.n_tm_forced

let node_flows t node =
  List.length
    (List.filter
       (function
         | Send { protocol = true; src; _ } -> src = node
         | _ -> false)
       (events t))

let node_writes ?(forced_only = false) t node =
  List.length
    (List.filter
       (function
         | Log_write { rm = false; node = n; forced; _ } ->
             n = node && ((not forced_only) || forced)
         | _ -> false)
       (events t))

let heuristic_count t =
  List.length (List.filter (function Heuristic _ -> true | _ -> false) (events t))

let damage_reports t =
  List.filter_map
    (function
      | Damage_detected { node; reported_to; _ } -> Some (node, reported_to)
      | _ -> None)
    (events t)

(* Pair each delivery with the oldest unmatched send of the same
   (src, dst, label) channel — FIFO, which is exactly the simulated
   network's per-link delivery order.  Sends that were dropped (or still
   in flight at quiescence) simply never pair.  The result feeds Perfetto
   flow arrows, so each pair carries a stable id. *)
let matched_flows t =
  let pending : (string * string * string, (int * float) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let next = ref 0 in
  let pairs =
    List.filter_map
      (function
        | Send { time; src; dst; label; _ } ->
            let key = (src, dst, label) in
            let id = !next in
            incr next;
            let q = Option.value ~default:[] (Hashtbl.find_opt pending key) in
            Hashtbl.replace pending key (q @ [ (id, time) ]);
            None
        | Deliver { time; src; dst; label } -> (
            let key = (src, dst, label) in
            match Hashtbl.find_opt pending key with
            | Some ((id, sent) :: rest) ->
                Hashtbl.replace pending key rest;
                Some (id, src, dst, label, sent, time)
            | _ -> None)
        | _ -> None)
      (events t)
  in
  pairs

let completion_time t node =
  List.find_map
    (function
      | Complete { time; node = n; _ } when n = node -> Some time
      | _ -> None)
    (events t)

let locks_released_time t node =
  List.find_map
    (function
      | Locks_released { time; node = n } when n = node -> Some time
      | _ -> None)
    (events t)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let event_to_string e =
  let f = Printf.sprintf in
  match e with
  | Send { time; src; dst; label; protocol } ->
      f "%8.2f  %s --> %s : %s%s" time src dst label
        (if protocol then "" else "  [data]")
  | Deliver { time; src; dst; label } ->
      f "%8.2f  %s <-- %s : %s (delivered)" time dst src label
  | Log_write { time; node; kind; forced; rm } ->
      f "%8.2f  %s %s log %s%s" time node
        (if forced then "*FORCES*" else "writes")
        (Wal.Log_record.kind_to_string kind)
        (if rm then " [rm]" else "")
  | Decide { time; node; outcome } ->
      f "%8.2f  %s decides %s" time node (Types.outcome_to_string outcome)
  | Complete { time; node; outcome; pending } ->
      f "%8.2f  %s completes: %s%s" time node
        (Types.outcome_to_string outcome)
        (if pending then " (outcome pending)" else "")
  | Heuristic { time; node; action } ->
      f "%8.2f  %s HEURISTIC %s" time node (Types.outcome_to_string action)
  | Damage_detected { time; node; reported_to } ->
      f "%8.2f  heuristic damage at %s reported to %s" time node
        (if reported_to = "" then "(nobody: report lost)" else reported_to)
  | Locks_released { time; node } -> f "%8.2f  %s releases locks" time node
  | Crash { time; node } -> f "%8.2f  %s CRASHES" time node
  | Restart { time; node } -> f "%8.2f  %s restarts" time node
  | Note { time; node; text } -> f "%8.2f  %s: %s" time node text

let to_string t = String.concat "\n" (List.map event_to_string (events t))

(** Render a message-sequence chart in the style of the paper's figures:
    one column per node (in [nodes] order), message arrows between columns,
    log forces marked beside the writing node. *)
let sequence_diagram ?(width = 16) t ~nodes =
  let buf = Buffer.create 1024 in
  let ncols = List.length nodes in
  let col name =
    let rec idx i = function
      | [] -> None
      | x :: _ when x = name -> Some i
      | _ :: rest -> idx (i + 1) rest
    in
    idx 0 nodes
  in
  let line_width = (ncols * width) + width in
  let header =
    String.concat ""
      (List.map (fun n -> Printf.sprintf "%-*s" width n) nodes)
  in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make (String.length header) '-');
  Buffer.add_char buf '\n';
  let centered_row () = Bytes.make line_width ' ' in
  let put_vertical_bars row =
    List.iteri
      (fun i _ ->
        let pos = (i * width) + (width / 4) in
        if pos < Bytes.length row && Bytes.get row pos = ' ' then
          Bytes.set row pos '|')
      nodes
  in
  let emit_row row =
    put_vertical_bars row;
    let s = Bytes.to_string row in
    (* trim trailing spaces *)
    let len = ref (String.length s) in
    while !len > 0 && s.[!len - 1] = ' ' do
      decr len
    done;
    Buffer.add_string buf (String.sub s 0 !len);
    Buffer.add_char buf '\n'
  in
  let write_at row pos text =
    String.iteri
      (fun i c ->
        let p = pos + i in
        if p >= 0 && p < Bytes.length row then Bytes.set row p c)
      text
  in
  let arrow_row src dst label =
    match (col src, col dst) with
    | Some a, Some b ->
        let row = centered_row () in
        let pa = (a * width) + (width / 4)
        and pb = (b * width) + (width / 4) in
        let lo = min pa pb and hi = max pa pb in
        for p = lo + 1 to hi - 1 do
          Bytes.set row p '-'
        done;
        if pa < pb then Bytes.set row (hi - 1) '>' else Bytes.set row (lo + 1) '<';
        let mid = ((lo + hi) / 2) - (String.length label / 2) in
        write_at row (max (lo + 2) mid) label;
        emit_row row
    | _ -> ()
  in
  let side_note node text =
    match col node with
    | Some c ->
        let row = centered_row () in
        write_at row ((c * width) + (width / 4) + 2) text;
        emit_row row
    | None -> ()
  in
  let handle = function
    | Send { src; dst; label; protocol; _ } ->
        arrow_row src dst (if protocol then label else label ^ " [data]")
    | Log_write { node; kind; forced; rm = false; _ } ->
        side_note node
          (Printf.sprintf "%s%s"
             (if forced then "*log " else "log ")
             (Wal.Log_record.kind_to_string kind))
    | Log_write { rm = true; _ } | Deliver _ -> ()
    | Decide { node; outcome; _ } ->
        side_note node ("decides " ^ Types.outcome_to_string outcome)
    | Complete { node; outcome; pending; _ } ->
        side_note node
          (Printf.sprintf "done:%s%s"
             (Types.outcome_to_string outcome)
             (if pending then "(pending)" else ""))
    | Heuristic { node; action; _ } ->
        side_note node ("HEURISTIC " ^ Types.outcome_to_string action)
    | Damage_detected { node; reported_to; _ } ->
        side_note node
          ("damage->" ^ if reported_to = "" then "lost" else reported_to)
    | Locks_released { node; _ } -> side_note node "unlocks"
    | Crash { node; _ } -> side_note node "CRASH"
    | Restart { node; _ } -> side_note node "RESTART"
    | Note { node; text; _ } -> side_note node text
  in
  List.iter handle (events t);
  Buffer.contents buf
