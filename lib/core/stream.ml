(** Chained-transaction streams: the workloads behind Table 4 (long locks),
    Figure 7, and the group-commit analysis of Section 4.

    Table 4 analyses [r] transactions "with small delays between them"
    between two members.  The interesting quantity is how acknowledgment
    piggybacking amortizes flows across consecutive transactions, so this
    module drives the flow/log schedule directly (two write-ahead logs, a
    latency-delayed message step, and the trace used for counting) rather
    than through {!Participant}.  The participant does piggyback
    acknowledgments onto next-transaction data; the gap is Figure 7's
    pairing across alternating roles, where Commit(t1) and the delegating
    Vote(t2, you decide) share one flow.

    Three chain modes:

    - {e basic}: every transaction pays the full Prepare / Vote / Commit /
      Ack cycle: [4r] flows.
    - {e long locks}: the subordinate withholds its acknowledgment and sends
      it with the data message that begins the next transaction: [3r]
      protocol flows (plus [r] data flows that would be sent anyway).
    - {e long locks + last agent} (Figure 7): transactions run in pairs with
      the peer roles alternating; each pair costs three flows
      (Vote(t1); Commit(t1)+Vote(t2); Commit(t2)+ack(t1), with the dangling
      acknowledgments riding the next pair's opener): [3r/2] flows. *)

type mode = Chain_basic | Chain_long_locks | Chain_long_locks_last_agent

let mode_to_string = function
  | Chain_basic -> "basic"
  | Chain_long_locks -> "long-locks"
  | Chain_long_locks_last_agent -> "long-locks+last-agent"

type result = {
  flows : int;        (** protocol flows *)
  data_flows : int;
  writes : int;       (** TM log writes at both members *)
  forced : int;
  duration : float;   (** virtual time from first flow to quiescence *)
  mean_coordinator_lock_time : float;
      (** virtual time the initiating side's resources stay locked per
          transaction (long locks holds them longer at the coordinator) *)
  trace : Trace.t;
}

type ctx = {
  engine : Simkernel.Engine.t;
  trace : Trace.t;
  wal_c : Wal.Log.t;
  wal_s : Wal.Log.t;
  latency : float;
  mutable lock_time_acc : float;
  mutable lock_samples : int;
}

let make_ctx ?(latency = 1.0) ?group () =
  let engine = Simkernel.Engine.create () in
  let wal_config = { Wal.Log.io_latency = 0.5; group } in
  {
    engine;
    trace = Trace.create ();
    wal_c = Wal.Log.create engine ~node:"C" ~config:wal_config ();
    wal_s = Wal.Log.create engine ~node:"S" ~config:wal_config ();
    latency;
    lock_time_acc = 0.0;
    lock_samples = 0;
  }

let now ctx = Simkernel.Engine.now ctx.engine

let send ctx ~src ~dst ~label ~protocol k =
  Trace.record ctx.trace
    (Trace.Send { time = now ctx; src; dst; label; protocol });
  ignore (Simkernel.Engine.schedule ctx.engine ~delay:ctx.latency (fun () -> k ()))

let force ctx wal ~txn kind k =
  let node = Wal.Log.node wal in
  Trace.record ctx.trace
    (Trace.Log_write { time = now ctx; node; kind; forced = true; rm = false });
  Wal.Log.force wal (Wal.Log_record.make ~txn ~node kind) k

let append ctx wal ~txn kind =
  let node = Wal.Log.node wal in
  Trace.record ctx.trace
    (Trace.Log_write { time = now ctx; node; kind; forced = false; rm = false });
  Wal.Log.append wal (Wal.Log_record.make ~txn ~node kind)

let note_lock_span ctx ~since =
  ctx.lock_time_acc <- ctx.lock_time_acc +. (now ctx -. since);
  ctx.lock_samples <- ctx.lock_samples + 1

(* ------------------------------------------------------------------ *)
(* One transaction: Prepare, Vote, Commit, then the acknowledgment    *)
(* ------------------------------------------------------------------ *)

(* How the subordinate's acknowledgment travels: in its own flow (basic,
   4 flows per transaction) or withheld and piggybacked on the data message
   that begins the next transaction (long locks, 3 protocol flows). *)
type ack_step = Ack_explicit | Ack_on_next_data

let commit_one ctx ~txn ~ack k =
  let prepare =
    match ack with
    | Ack_explicit -> "Prepare"
    | Ack_on_next_data -> "Prepare(long-locks)"
  in
  send ctx ~src:"C" ~dst:"S" ~label:prepare ~protocol:true (fun () ->
      force ctx ctx.wal_s ~txn Wal.Log_record.Prepared (fun () ->
          send ctx ~src:"S" ~dst:"C" ~label:"Vote YES" ~protocol:true (fun () ->
              force ctx ctx.wal_c ~txn Wal.Log_record.Committed (fun () ->
                  send ctx ~src:"C" ~dst:"S" ~label:"Commit" ~protocol:true
                    (fun () ->
                      force ctx ctx.wal_s ~txn Wal.Log_record.Committed
                        (fun () ->
                          append ctx ctx.wal_s ~txn Wal.Log_record.End;
                          let acked () =
                            append ctx ctx.wal_c ~txn Wal.Log_record.End;
                            k ()
                          in
                          match ack with
                          | Ack_explicit ->
                              send ctx ~src:"S" ~dst:"C" ~label:"Ack"
                                ~protocol:true acked
                          | Ack_on_next_data ->
                              (* the ack waits for the subordinate to begin
                                 the next transaction: a think-time gap
                                 during which the coordinator's resources
                                 stay locked *)
                              ignore
                                (Simkernel.Engine.schedule ctx.engine
                                   ~delay:1.0 (fun () ->
                                     send ctx ~src:"S" ~dst:"C"
                                       ~label:"Data(next txn) + Ack"
                                       ~protocol:false acked))))))))

(* [r] transactions back to back; the coordinator's resources stay locked
   from Prepare until the acknowledgment arrives. *)
let rec chain ctx ~ack i r k =
  if i > r then k ()
  else begin
    let locked_at = now ctx in
    commit_one ctx ~txn:(Printf.sprintf "t%d" i) ~ack (fun () ->
        note_lock_span ctx ~since:locked_at;
        chain ctx ~ack (i + 1) r k)
  end

(* ------------------------------------------------------------------ *)
(* Long locks + last agent: pairs of transactions in three flows       *)
(* (Figure 7: "commit two transactions in three steps")                *)
(* ------------------------------------------------------------------ *)

(* Within a pair the peers swap roles: the pair initiator [a] delegates t_i
   to [b]; [b] commits t_i, immediately opens t_{i+1} as its coordinator and
   delegates it back to [a] in the same flow; [a]'s commit of t_{i+1} rides
   the third flow together with the implied acknowledgment of t_i.  The
   acknowledgment [b] owes for t_{i+1} rides the next pair's opening flow. *)
let rec ll_last_agent_pair ctx i r ~initiator_is_c k =
  if i > r then k ()
  else begin
    let t1 = Printf.sprintf "t%d" i in
    let t2 = if i + 1 <= r then Some (Printf.sprintf "t%d" (i + 1)) else None in
    let a, wal_a, b, wal_b =
      if initiator_is_c then ("C", ctx.wal_c, "S", ctx.wal_s)
      else ("S", ctx.wal_s, "C", ctx.wal_c)
    in
    let locked_at = now ctx in
    (* flow 1: a prepares itself and hands b the decision for t1 *)
    force ctx wal_a ~txn:t1 Wal.Log_record.Prepared (fun () ->
        send ctx ~src:a ~dst:b ~label:"Vote YES (you decide)" ~protocol:true
          (fun () ->
            (* b decides t1 and, if there is a t2, opens it and delegates it
               back to a in the same flow *)
            force ctx wal_b ~txn:t1 Wal.Log_record.Committed (fun () ->
                match t2 with
                | None ->
                    (* odd tail: only Commit(t1) flows back *)
                    send ctx ~src:b ~dst:a ~label:"Commit" ~protocol:true
                      (fun () ->
                        force ctx wal_a ~txn:t1 Wal.Log_record.Committed
                          (fun () ->
                            append ctx wal_a ~txn:t1 Wal.Log_record.End;
                            (* implied ack for b's commit record *)
                            send ctx ~src:a ~dst:b ~label:"Data + implied Ack"
                              ~protocol:false (fun () ->
                                append ctx wal_b ~txn:t1 Wal.Log_record.End;
                                note_lock_span ctx ~since:locked_at;
                                k ())))
                | Some t2 ->
                    force ctx wal_b ~txn:t2 Wal.Log_record.Prepared (fun () ->
                        (* flow 2: Commit(t1) + Vote YES(t2, you decide) *)
                        send ctx ~src:b ~dst:a
                          ~label:"Commit(t1) + Vote YES(t2, you decide)"
                          ~protocol:true (fun () ->
                            force ctx wal_a ~txn:t1 Wal.Log_record.Committed
                              (fun () ->
                                append ctx wal_a ~txn:t1 Wal.Log_record.End;
                                (* a decides t2 *)
                                force ctx wal_a ~txn:t2
                                  Wal.Log_record.Committed (fun () ->
                                    append ctx wal_a ~txn:t2 Wal.Log_record.End;
                                    (* flow 3: Commit(t2) + implied ack(t1) *)
                                    send ctx ~src:a ~dst:b
                                      ~label:"Commit(t2) + implied Ack(t1)"
                                      ~protocol:true (fun () ->
                                        append ctx wal_b ~txn:t1
                                          Wal.Log_record.End;
                                        force ctx wal_b ~txn:t2
                                          Wal.Log_record.Committed (fun () ->
                                            append ctx wal_b ~txn:t2
                                              Wal.Log_record.End;
                                            note_lock_span ctx ~since:locked_at;
                                            (* b's ack of t2 rides the next
                                               pair's opener (or a trailing
                                               data message at the end) *)
                                            if i + 2 > r then
                                              send ctx ~src:b ~dst:a
                                                ~label:"Data + implied Ack(t2)"
                                                ~protocol:false k
                                            else
                                              ll_last_agent_pair ctx (i + 2) r
                                                ~initiator_is_c:
                                                  (not initiator_is_c)
                                                k)))))))))
  end

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let finish ctx =
  Simkernel.Engine.run ctx.engine;
  let data_flows =
    List.length
      (List.filter
         (function Trace.Send { protocol = false; _ } -> true | _ -> false)
         (Trace.events ctx.trace))
  in
  {
    flows = Trace.flows ctx.trace;
    data_flows;
    writes = Trace.tm_writes ctx.trace;
    forced = Trace.tm_forced_writes ctx.trace;
    duration = now ctx;
    mean_coordinator_lock_time =
      (if ctx.lock_samples = 0 then 0.0
       else ctx.lock_time_acc /. float_of_int ctx.lock_samples);
    trace = ctx.trace;
  }

let run_chain ?latency mode ~r =
  let ctx = make_ctx ?latency () in
  (match mode with
  | Chain_basic -> chain ctx ~ack:Ack_explicit 1 r (fun () -> ())
  | Chain_long_locks -> chain ctx ~ack:Ack_on_next_data 1 r (fun () -> ())
  | Chain_long_locks_last_agent ->
      ll_last_agent_pair ctx 1 r ~initiator_is_c:true (fun () -> ()));
  finish ctx

(* ------------------------------------------------------------------ *)
(* Group commit                                                        *)
(* ------------------------------------------------------------------ *)

type gc_result = {
  gc_transactions : int;
  gc_force_requests : int;  (** logical forced writes issued *)
  gc_force_ios : int;       (** physical force I/Os after batching *)
  gc_saved_ios : int;
  gc_paper_saving : float;  (** the paper's 3n/2m estimate *)
  gc_mean_commit_latency : float;
      (** group commit's cost: commits wait for their batch *)
}

(** [n] concurrent two-member transactions whose coordinator sides share
    one log and whose subordinate sides share another (the paper's
    "only one member of each transaction resides at each node").  Each
    transaction issues three forced writes (subordinate Prepared,
    coordinator Committed, subordinate Committed); the group-commit log
    manager batches them. *)
let run_group_commit ?(timeout = 5.0) ~n ~group_size () =
  let group =
    if group_size <= 1 then None
    else Some { Wal.Log.size = group_size; timeout }
  in
  let ctx = make_ctx ?group () in
  let completed = ref 0 in
  let latency_acc = ref 0.0 in
  for i = 1 to n do
    ignore
      (Simkernel.Engine.schedule ctx.engine
         ~delay:(float_of_int (i - 1) *. 0.1)
         (fun () ->
           let started = now ctx in
           commit_one ctx ~txn:(Printf.sprintf "g%d" i) ~ack:Ack_explicit
             (fun () ->
               incr completed;
               latency_acc := !latency_acc +. (now ctx -. started))))
  done;
  Simkernel.Engine.run ctx.engine;
  let stats_c = Wal.Log.stats ctx.wal_c and stats_s = Wal.Log.stats ctx.wal_s in
  let requests = stats_c.Wal.Log.forced_writes + stats_s.Wal.Log.forced_writes in
  let ios = stats_c.Wal.Log.force_ios + stats_s.Wal.Log.force_ios in
  {
    gc_transactions = !completed;
    gc_force_requests = requests;
    gc_force_ios = ios;
    gc_saved_ios = requests - ios;
    gc_paper_saving = Cost_model.group_commit_saving ~n ~m:(max 1 group_size);
    gc_mean_commit_latency =
      (if !completed = 0 then 0.0 else !latency_acc /. float_of_int !completed);
  }
