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

(* The aggregate counters the paper tabulates are maintained incrementally
   on every [record]: the throughput engines read them once per run, and
   with [keep_events = false] they are the only thing a trace costs — no
   list cell per event, which is the dominant allocation of a sweep cell
   once the engine itself stops boxing thunks. *)
type t = {
  keep_events : bool;
  mutable events : event list; (* newest first; [] when not kept *)
  mutable n_flows : int;
  mutable n_data_flows : int;
  mutable n_tm_writes : int;
  mutable n_tm_forced : int;
}

let create ?(keep_events = true) () =
  {
    keep_events;
    events = [];
    n_flows = 0;
    n_data_flows = 0;
    n_tm_writes = 0;
    n_tm_forced = 0;
  }

let keeps_events t = t.keep_events

let count_send t ~protocol =
  if protocol then t.n_flows <- t.n_flows + 1
  else t.n_data_flows <- t.n_data_flows + 1

let count_tm_write t ~forced =
  t.n_tm_writes <- t.n_tm_writes + 1;
  if forced then t.n_tm_forced <- t.n_tm_forced + 1

let record t e =
  (match e with
  | Send { protocol; _ } -> count_send t ~protocol
  | Log_write { rm = false; forced; _ } -> count_tm_write t ~forced
  | _ -> ());
  if t.keep_events then t.events <- e :: t.events

let events t = List.rev t.events

let clear t =
  t.events <- [];
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
       t.events)

let tm_writes t = t.n_tm_writes
let tm_forced_writes t = t.n_tm_forced

let node_flows t node =
  List.length
    (List.filter
       (function
         | Send { protocol = true; src; _ } -> src = node
         | _ -> false)
       t.events)

let node_writes ?(forced_only = false) t node =
  List.length
    (List.filter
       (function
         | Log_write { rm = false; node = n; forced; _ } ->
             n = node && ((not forced_only) || forced)
         | _ -> false)
       t.events)

let heuristic_count t =
  List.length (List.filter (function Heuristic _ -> true | _ -> false) t.events)

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
