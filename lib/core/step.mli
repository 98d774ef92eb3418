(** Protocol steps as data.

    Every point where a participant waits - a forced TM record, a guarded
    timer, a protocol's backing delay - is a {e step}: an int code naming
    what runs next, plus the transaction state it runs on, kept in a slot
    of an {!arena}.  A timer step is a flat engine event carrying the epoch it
    was armed under, its slot and its code; a forced record's step rides
    {!Wal.Log.force_row} as one {!token} packing the same three.  Either
    way the participant resumes it through one dispatch, and a step armed
    before a crash (an older epoch) is dropped without reading its slot.
    Because a pending step is plain data, it can be listed, reordered and
    fingerprinted. *)

(** What a step does when it resumes.  Timers: the vote timeout, the
    delegation, acknowledgment and in-doubt retries, the heuristic
    patience timer, a deferred piggyback, and the wait for a protocol's
    backing ({!Protocol_intf.evidence.ev_decide}).  Forced records: the
    protocol's coordinator and voter logs, a delegator's and an
    unsolicited voter's prepared record, a logged outcome and a heuristic
    decision.
    What else a step needs rides in its argument: a retry attempt, the
    child an acknowledgment retry is for, a deferred bundle's id, an
    outcome, a vote's reliable and leave-out bits. *)
type kind =
  | Vote_timeout
  | Delegation_retry
  | Ack_retry
  | Heuristic_timeout
  | Indoubt_retry
  | Piggyback
  | Backed
  | Coordinator_log
  | Voter_log
  | Delegation_log
  | Unsolicited_log
  | Outcome_log
  | Heuristic_log

(** {2 Codes}

    A code is the kind in bits 0-3, a forced record's kind in bits 4-7,
    and the step's argument above: a retry attempt, an index into a
    record list, an outcome or flag bits.  {!arm} and {!token} build
    them. *)

val kind : int -> kind
val arg : int -> int

val record : int -> Wal.Log_record.kind
(** The record a forced step's code waits for. *)

(** {2 Arenas} *)

type 's arena
(** Pending steps' slots: each keeps the transaction state (['s]) its step
    runs on and a timer's event handle.  Slots form a freelist; the arena
    is empty until its first step and doubles on demand. *)

val arena :
  Simkernel.Engine.t ->
  name:string ->
  no_state:'s ->
  (epoch:int -> slot:int -> int -> unit) ->
  's arena
(** An empty arena whose steps resume through the given handler, with
    the epoch they were armed under (as many bits as a step keeps, see
    {!same_epoch}), their slot and their code.  It registers one flat
    event kind, [name], for its timers.  A free slot holds [no_state]. *)

val arm : 's arena -> epoch:int -> delay:float -> 's -> kind -> int -> int
(** [arm a ~epoch ~delay st kind arg] takes a slot for a timer step and
    schedules it [delay] from now; answers the slot. *)

val cancel : 's arena -> 's -> int -> int
(** [cancel a st slot] cancels [st]'s timer step in [slot] if it is still
    pending there, freeing the slot; answers [-1] (no slot) for the field
    that held it.  A negative [slot] cancels nothing. *)

val token : 's arena -> epoch:int -> 's -> kind -> Wal.Log_record.kind -> int -> int
(** [token a ~epoch st kind record arg] takes a slot for a step that
    waits for [record] to be durable and answers the token
    {!Wal.Log.force_row} carries: the code in bits 0-19, the slot in bits
    20-41, the epoch above. *)

val on_token : 's arena -> int -> unit
(** Resume a token's step through the arena's handler: the resume
    handler a writer registers with {!Wal.Log.on_durable}. *)

val same_epoch : int -> int -> bool
(** Whether two epochs agree in the bits a step keeps. *)

val release : 's arena -> int -> unit
(** Free a slot. *)

val reset : 's arena -> unit
(** Free every slot. *)

val state : 's arena -> int -> 's
