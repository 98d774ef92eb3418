type kind =
  | Commit_pending
  | Prepared
  | Committed
  | Aborted
  | End
  | Agent
  | Heuristic_commit
  | Heuristic_abort
  | Rm_update
  | Rm_prepared
  | Rm_committed
  | Rm_aborted
  | Checkpoint
  | Certificate

type t = { txn : string; node : string; kind : kind; payload : string }

let make ~txn ~node ?(payload = "") kind = { txn; node; kind; payload }

(* [kinds.(code k) = k] *)
let kinds =
  [|
    Commit_pending; Prepared; Committed; Aborted; End; Agent;
    Heuristic_commit; Heuristic_abort; Rm_update; Rm_prepared; Rm_committed;
    Rm_aborted; Checkpoint; Certificate;
  |]

let code = function
  | Commit_pending -> 0
  | Prepared -> 1
  | Committed -> 2
  | Aborted -> 3
  | End -> 4
  | Agent -> 5
  | Heuristic_commit -> 6
  | Heuristic_abort -> 7
  | Rm_update -> 8
  | Rm_prepared -> 9
  | Rm_committed -> 10
  | Rm_aborted -> 11
  | Checkpoint -> 12
  | Certificate -> 13

let of_code c = kinds.(c)
let codes = Array.length kinds

let kind_to_string = function
  | Commit_pending -> "commit-pending"
  | Prepared -> "prepared"
  | Committed -> "committed"
  | Aborted -> "aborted"
  | End -> "end"
  | Agent -> "agent"
  | Heuristic_commit -> "heuristic-commit"
  | Heuristic_abort -> "heuristic-abort"
  | Rm_update -> "rm-update"
  | Rm_prepared -> "rm-prepared"
  | Rm_committed -> "rm-committed"
  | Rm_aborted -> "rm-aborted"
  | Checkpoint -> "checkpoint"
  | Certificate -> "certificate"

let pp ppf t =
  Format.fprintf ppf "[%s@%s %s%s]" t.txn t.node (kind_to_string t.kind)
    (if t.payload = "" then "" else " " ^ t.payload)

let is_tm_kind = function
  | Rm_update | Rm_prepared | Rm_committed | Rm_aborted | Checkpoint -> false
  | Commit_pending | Prepared | Committed | Aborted | End | Agent
  | Heuristic_commit | Heuristic_abort | Certificate ->
      true

let is_tm_record t = is_tm_kind t.kind
