(* Protocol steps as data; see step.mli. *)

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

let kinds =
  [|
    Vote_timeout; Delegation_retry; Ack_retry; Heuristic_timeout; Indoubt_retry;
    Piggyback; Backed; Coordinator_log; Voter_log; Delegation_log;
    Unsolicited_log; Outcome_log; Heuristic_log;
  |]

(* [kinds]' inverse: a match, so a code is built without a closure *)
let index = function
  | Vote_timeout -> 0
  | Delegation_retry -> 1
  | Ack_retry -> 2
  | Heuristic_timeout -> 3
  | Indoubt_retry -> 4
  | Piggyback -> 5
  | Backed -> 6
  | Coordinator_log -> 7
  | Voter_log -> 8
  | Delegation_log -> 9
  | Unsolicited_log -> 10
  | Outcome_log -> 11
  | Heuristic_log -> 12

let code kind arg = index kind lor (arg lsl 8)
let forced kind record arg = code kind arg lor (Wal.Log_record.code record lsl 4)
let kind c = kinds.(c land 15)
let arg c = c lsr 8
let record c = Wal.Log_record.of_code ((c lsr 4) land 15)

let code_bits = 20
let slot_bits = 22
let epoch_mask = (1 lsl (Sys.int_size - code_bits - slot_bits - 1)) - 1

let same_epoch a b = a land epoch_mask = b land epoch_mask

type 's arena = {
  mutable states : 's array;
  mutable events : Simkernel.Engine.event array;
  mutable next : int array;
  mutable free : int;
  no_state : 's;
  engine : Simkernel.Engine.t;
  timer : Simkernel.Engine.kind;  (* a0 the epoch, a1 the slot, a2 the code *)
  resume : epoch:int -> slot:int -> int -> unit;
}

let arena engine ~name ~no_state resume =
  let timer =
    Simkernel.Engine.register_kind engine ~name (fun epoch slot code _ ->
        resume ~epoch ~slot code)
  in
  {
    states = [||];
    events = [||];
    next = [||];
    free = -1;
    no_state;
    engine;
    timer;
    resume;
  }

let release a s =
  a.states.(s) <- a.no_state;
  a.next.(s) <- a.free;
  a.free <- s

let reset a =
  a.free <- -1;
  for s = Array.length a.next - 1 downto 0 do
    release a s
  done

let take a st =
  if a.free < 0 then begin
    let cap = Array.length a.next in
    let grow arr x =
      let b = Array.make (max 4 (2 * cap)) x in
      Array.blit arr 0 b 0 cap;
      b
    in
    a.states <- grow a.states a.no_state;
    a.events <- grow a.events Simkernel.Engine.no_event;
    a.next <- grow a.next (-1);
    for s = Array.length a.next - 1 downto cap do
      release a s
    done
  end;
  let s = a.free in
  a.free <- a.next.(s);
  a.states.(s) <- st;
  s

let state a s = a.states.(s)

let arm a ~epoch ~delay st kind arg =
  let s = take a st in
  a.events.(s) <-
    Simkernel.Engine.schedule_flat a.engine ~delay ~kind:a.timer ~a0:epoch ~a1:s
      ~a2:(code kind arg);
  s

let cancel a st s =
  if s >= 0 && a.states.(s) == st then begin
    Simkernel.Engine.cancel a.engine a.events.(s);
    release a s
  end;
  -1

let token a ~epoch st kind record arg =
  let slot = take a st in
  ((epoch land epoch_mask) lsl (code_bits + slot_bits))
  lor (slot lsl code_bits)
  lor forced kind record arg

let on_token a tok =
  a.resume
    ~epoch:(tok lsr (code_bits + slot_bits))
    ~slot:((tok lsr code_bits) land ((1 lsl slot_bits) - 1))
    (tok land ((1 lsl code_bits) - 1))
