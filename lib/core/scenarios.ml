(** Canned runs that regenerate the paper's figures as message-sequence
    traces, plus the failure/heuristic situations the text describes. *)

open Types

type t = {
  sc_id : string;
  sc_title : string;
  sc_description : string;
  sc_nodes : string list;  (** column order for the sequence diagram *)
  sc_trace : Trace.t;
  sc_metrics : Metrics.t option;
}

let run_scenario ~id ~title ~description ~nodes ?config tree =
  let metrics, w = Run.commit_tree ?config tree in
  {
    sc_id = id;
    sc_title = title;
    sc_description = description;
    sc_nodes = nodes;
    sc_trace = w.Run.trace;
    sc_metrics = Some metrics;
  }

(** Figure 1: simple two-phase commit, one coordinator and one subordinate. *)
let figure1 () =
  run_scenario ~id:"figure-1" ~title:"Simple Two-Phase Commit Processing"
    ~description:
      "Prepare / Vote YES / Commit / Ack with the subordinate forcing \
       prepared and committed records and the coordinator forcing the \
       commit record."
    ~nodes:[ "coordinator"; "subordinate" ]
    ~config:(default_config |> with_protocol Basic)
    (Tree (member "coordinator", [ Tree (member "subordinate", []) ]))

(** Figure 2: 2PC with a cascaded (intermediate) coordinator. *)
let figure2 () =
  run_scenario ~id:"figure-2" ~title:"Two-Phase Commit with Cascaded Coordinator"
    ~description:
      "A three-deep commit tree: the intermediate propagates Prepare \
       downstream and collects votes/acks for its subtree."
    ~nodes:[ "coordinator"; "cascaded"; "subordinate" ]
    ~config:(default_config |> with_protocol Basic)
    (Tree
       ( member "coordinator",
         [ Tree (member "cascaded", [ Tree (member "subordinate", []) ]) ] ))

(** Figure 3: Presumed Nothing with an intermediate coordinator.  Both the
    root and the cascaded coordinator force commit-pending records before
    sending Prepare. *)
let figure3 () =
  run_scenario ~id:"figure-3"
    ~title:"Presumed Nothing Commit Processing with Intermediate Coordinator"
    ~description:
      "PN forces a commit-pending record at the (cascaded) coordinator \
       before any Prepare is sent, so recovery can reach subordinates and \
       collect heuristic-damage reports."
    ~nodes:[ "coordinator"; "cascaded"; "subordinate" ]
    ~config:(default_config |> with_protocol Presumed_nothing)
    (Tree
       ( member "coordinator",
         [ Tree (member "cascaded", [ Tree (member "subordinate", []) ]) ] ))

(** Figure 4: partial read-only - one subordinate updated, the other only
    read; the read-only voter drops out of phase two with no log writes. *)
let figure4 () =
  run_scenario ~id:"figure-4" ~title:"Partial Read-Only Commit Processing"
    ~description:
      "The read-only subordinate votes read-only, releases its locks \
       immediately, writes nothing and is left out of the decision phase."
    ~nodes:[ "coordinator"; "updater"; "reader" ]
    ~config:(default_config |> with_opts [ `Read_only ])
    (Tree
       ( member "coordinator",
         [ Tree (member "updater", []); Tree (member ~updated:false "reader", []) ] ))

(** Figure 5: the hazard behind the restricted leave-out rule.  Two
    programs independently initiate commit processing for the same
    transaction; the common subordinate detects two would-be coordinators
    and the transaction aborts. *)
let figure5 () =
  let engine = Simkernel.Engine.create () in
  let net = Net.create engine ~default_latency:1.0 () in
  let trace = Trace.create ~engine () in
  let cfg = default_config in
  let wal_cfg = { Wal.Log.io_latency = cfg.io_latency; group = None } in
  let mk_node ?(children = []) ~parent name =
    let wal = Wal.Log.create engine ~node:name ~config:wal_cfg () in
    let kv = Kvstore.create engine ~name:(name ^ ".rm") ~wal () in
    let p =
      Participant.create ~net ~trace ~cfg ~profile:(member name)
        ~parent ~child_profiles:children ~wal ~kv
    in
    Participant.attach p;
    (p, kv)
  in
  (* Pa sits between two subtrees; Pd and Pe each believe they coordinate *)
  let pa, kv_a = mk_node ~parent:(Some (member "Pd")) "Pa" in
  ignore pa;
  let pd, kv_d = mk_node ~children:[ member "Pa" ] ~parent:None "Pd" in
  let pe, kv_e = mk_node ~children:[ member "Pa" ] ~parent:None "Pe" in
  let txn = "txn-1" in
  ignore (Kvstore.put kv_a ~txn ~key:"shared" ~value:"v");
  ignore (Kvstore.put kv_d ~txn ~key:"d" ~value:"v");
  ignore (Kvstore.put kv_e ~txn ~key:"e" ~value:"v");
  Participant.begin_commit pd ~txn;
  Participant.begin_commit pe ~txn;
  Simkernel.Engine.run engine;
  {
    sc_id = "figure-5";
    sc_title = "Transaction Tree Partitioned Because of Left Out Partners";
    sc_description =
      "Pd and Pe both initiate commit processing for the same transaction \
       (as can happen when a shared partner was naively left out by both \
       sides).  Two TMs would own the commit decision, so the transaction \
       aborts - the reason PN only allows leaving out suspended pure-server \
       subtrees.";
    sc_nodes = [ "Pd"; "Pa"; "Pe" ];
    sc_trace = trace;
    sc_metrics = None;
  }

(** Figure 6: last-agent commit processing. *)
let figure6 () =
  run_scenario ~id:"figure-6" ~title:"Last-Agent Commit Processing"
    ~description:
      "The coordinator prepares itself, force-writes a prepared record and \
       sends its YES vote to the last agent, which decides and replies with \
       the outcome; the acknowledgment is implied by the next data sent."
    ~nodes:[ "coordinator"; "last-agent" ]
    ~config:(default_config |> with_opts [ `Last_agent ])
    (Tree (member "coordinator", [ Tree (member "last-agent", []) ]))

(** Figure 7: long locks committing chained transactions; the subordinate
    buffers the commit acknowledgment into the message beginning the next
    transaction. *)
let figure7 () =
  let _, w = Run.chain Run.Chain_long_locks ~r:2 in
  {
    sc_id = "figure-7";
    sc_title = "Example of Long Locks committing one transaction";
    sc_description =
      "Two chained transactions under the long-locks variation: each \
       commit acknowledgment rides the data message that begins the next \
       transaction, reducing protocol flows from 4 to 3 per transaction at \
       the cost of the coordinator's resources staying locked longer.";
    sc_nodes = [ "C"; "S" ];
    sc_trace = w.Run.trace;
    sc_metrics = None;
  }

(** Figure 8: all resources voted reliable - the cascaded coordinator uses
    early acknowledgment and the reliable subordinate's ack is implied. *)
let figure8 () =
  run_scenario ~id:"figure-8"
    ~title:"Two-Phase Commit Processing, All Resources Voted Reliable"
    ~description:
      "Every resource declares heuristic decisions vanishingly unlikely; \
       intermediates may acknowledge early and the reliable members' \
       explicit acknowledgments are elided."
    ~nodes:[ "coordinator"; "cascaded"; "subordinate" ]
    ~config:(default_config |> with_opts [ `Vote_reliable ])
    (Tree
       ( member "coordinator",
         [
           Tree
             ( member ~reliable:true "cascaded",
               [ Tree (member ~reliable:true "subordinate", []) ] );
         ] ))

let all () =
  [
    figure1 ();
    figure2 ();
    figure3 ();
    figure4 ();
    figure5 ();
    figure6 ();
    figure7 ();
    figure8 ();
  ]

let render sc =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "=== %s: %s ===\n%s\n\n" sc.sc_id sc.sc_title sc.sc_description);
  Buffer.add_string buf (Trace.sequence_diagram sc.sc_trace ~nodes:sc.sc_nodes);
  (match sc.sc_metrics with
  | Some m ->
      Buffer.add_string buf
        (Printf.sprintf "\n%s\n" (Format.asprintf "%a" Metrics.pp m))
  | None -> ());
  Buffer.contents buf
