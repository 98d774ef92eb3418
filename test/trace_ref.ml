(* The list recorder that Tpc.Trace's event-log view replaced, kept as the
   reference for test_trace's oracle property.  Events are Trace's own
   type, so the two recorders' answers compare with (=).  Only the
   recording entry points, the counters and the queries the property
   compares are kept. *)

module T = Tpc.Trace

type t = {
  mutable events : T.event list;  (* newest first *)
  mutable n_flows : int;
  mutable n_data_flows : int;
  mutable n_tm_writes : int;
  mutable n_tm_forced : int;
}

let create () =
  { events = []; n_flows = 0; n_data_flows = 0; n_tm_writes = 0; n_tm_forced = 0 }

let count_send t ~protocol =
  if protocol then t.n_flows <- t.n_flows + 1
  else t.n_data_flows <- t.n_data_flows + 1

let count_tm_write t ~forced =
  t.n_tm_writes <- t.n_tm_writes + 1;
  if forced then t.n_tm_forced <- t.n_tm_forced + 1

let record t (e : T.event) =
  (match e with
  | Send { protocol; _ } -> count_send t ~protocol
  | Log_write { rm = false; forced; _ } -> count_tm_write t ~forced
  | _ -> ());
  t.events <- e :: t.events

let events t = List.rev t.events

let clear t =
  t.events <- [];
  t.n_flows <- 0;
  t.n_data_flows <- 0;
  t.n_tm_writes <- 0;
  t.n_tm_forced <- 0

let counters t = [ t.n_flows; t.n_data_flows; t.n_tm_writes; t.n_tm_forced ]

let node_flows t node =
  List.length
    (List.filter
       (function T.Send { protocol = true; src; _ } -> src = node | _ -> false)
       t.events)

let node_writes ?(forced_only = false) t node =
  List.length
    (List.filter
       (function
         | T.Log_write { rm = false; node = n; forced; _ } ->
             n = node && ((not forced_only) || forced)
         | _ -> false)
       t.events)

let matched_flows t =
  let pending : (string * string * string, (int * float) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let next = ref 0 in
  List.filter_map
    (function
      | T.Send { time; src; dst; label; _ } ->
          let key = (src, dst, label) in
          let id = !next in
          incr next;
          let q = Option.value ~default:[] (Hashtbl.find_opt pending key) in
          Hashtbl.replace pending key (q @ [ (id, time) ]);
          None
      | T.Deliver { time; src; dst; label } -> (
          let key = (src, dst, label) in
          match Hashtbl.find_opt pending key with
          | Some ((id, sent) :: rest) ->
              Hashtbl.replace pending key rest;
              Some (id, src, dst, label, sent, time)
          | _ -> None)
      | _ -> None)
    (events t)

let completion_time t node =
  List.find_map
    (function T.Complete { time; node = n; _ } when n = node -> Some time | _ -> None)
    (events t)

let locks_released_time t node =
  List.find_map
    (function
      | T.Locks_released { time; node = n } when n = node -> Some time | _ -> None)
    (events t)

let to_string t = String.concat "\n" (List.map T.event_to_string (events t))
