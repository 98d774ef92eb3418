(* The write-ahead log as it was before its records became packed rows:
   an array of boxed [Wal.Log_record.t], kept as the reference the packed
   log is checked against (test_wal's model property) and as the log the
   id-keyed suite's string-keyed store runs on, whose checkpoint finds its
   newest record by physical identity.  One change from that code: force
   marks are absolute record numbers ([base + position]), so a force in
   flight across a compaction hardens only the records it covered. *)

type group = Wal.Log.group = { size : int; timeout : float }
type config = Wal.Log.config = { io_latency : float; group : group option }

type stats = Wal.Log.stats = { writes : int; forced_writes : int; force_ios : int }

type t = {
  engine : Simkernel.Engine.t;
  node_name : string;
  cfg : config;
  mutable records : Wal.Log_record.t array; (* grow-only arena *)
  mutable len : int;
  mutable durable_upto : int; (* records.(0 .. durable_upto-1) are durable *)
  mutable base : int; (* records compaction has dropped, ever *)
  mutable writes : int;
  mutable forced_writes : int;
  mutable force_ios : int;
  (* group-commit state *)
  mutable batch : (int * (unit -> unit)) list; (* high-water mark, continuation *)
  mutable batch_timer : Simkernel.Engine.event option;
  mutable epoch : int; (* bumped on crash so in-flight I/O completions are ignored *)
  (* An I/O completion schedules as a flat event: a0 indexes the pending
     continuation list in this freelist-chained arena, a1 is the high-water
     mark, a2 the epoch the force was issued under. *)
  io_kind : Simkernel.Engine.kind;
  batch_kind : Simkernel.Engine.kind;
  mutable io_conts : (unit -> unit) list array;
  mutable io_next : int array;
  mutable io_free : int;
}

let default_config = { io_latency = 0.5; group = None }

(* forward reference: the batch-timer kind fires [flush_batch], which is
   defined below [create] *)
let batch_fire : (t -> unit) ref = ref (fun _ -> ())

let io_complete t slot upto epoch =
  let conts = t.io_conts.(slot) in
  t.io_conts.(slot) <- [];
  t.io_next.(slot) <- t.io_free;
  t.io_free <- slot;
  if t.epoch = epoch then begin
    let upto = upto - t.base in
    if upto > t.durable_upto then t.durable_upto <- upto;
    List.iter (fun k -> k ()) conts
  end

let create engine ~node ?(config = default_config) () =
  let tref = ref None in
  let with_t f a0 a1 a2 _ =
    match !tref with Some t -> f t a0 a1 a2 | None -> ()
  in
  let io_kind =
    Simkernel.Engine.register_kind engine ~name:"wal.io" (with_t io_complete)
  in
  let batch_kind =
    Simkernel.Engine.register_kind engine ~name:"wal.batch"
      (with_t (fun t _ _ _ ->
           t.batch_timer <- None;
           !batch_fire t))
  in
  let cap = 8 in
  let t =
    {
      engine;
      node_name = node;
      cfg = config;
      records = Array.make 32 (Wal.Log_record.make ~txn:"" ~node:"" Wal.Log_record.End);
      len = 0;
      durable_upto = 0;
      base = 0;
      writes = 0;
      forced_writes = 0;
      force_ios = 0;
      batch = [];
      batch_timer = None;
      epoch = 0;
      io_kind;
      batch_kind;
      io_conts = Array.make cap [];
      io_next = Array.init cap (fun i -> if i = cap - 1 then -1 else i + 1);
      io_free = 0;
    }
  in
  tref := Some t;
  t

let node t = t.node_name
let config t = t.cfg

let push t r =
  if t.len = Array.length t.records then begin
    let bigger = Array.make (2 * t.len) r in
    Array.blit t.records 0 bigger 0 t.len;
    t.records <- bigger
  end;
  t.records.(t.len) <- r;
  t.len <- t.len + 1

let append t r =
  push t r;
  t.writes <- t.writes + 1

(* One physical I/O hardening everything up to [upto]; continuations in
   [conts] fire after the I/O latency, unless a crash bumped the epoch. *)
let physical_force t ~upto conts =
  t.force_ios <- t.force_ios + 1;
  if t.io_free = -1 then begin
    let cap = Array.length t.io_conts in
    let cap' = 2 * cap in
    let io_conts = Array.make cap' [] in
    Array.blit t.io_conts 0 io_conts 0 cap;
    let next = Array.init cap' (fun i -> if i = cap' - 1 then -1 else i + 1) in
    Array.blit t.io_next 0 next 0 cap;
    t.io_conts <- io_conts;
    t.io_next <- next;
    t.io_free <- cap
  end;
  let slot = t.io_free in
  t.io_free <- t.io_next.(slot);
  t.io_conts.(slot) <- conts;
  ignore
    (Simkernel.Engine.schedule_flat t.engine ~delay:t.cfg.io_latency
       ~kind:t.io_kind ~a0:slot ~a1:upto ~a2:t.epoch)

let flush_batch t =
  (match t.batch_timer with
  | Some ev ->
      Simkernel.Engine.cancel t.engine ev;
      t.batch_timer <- None
  | None -> ());
  match t.batch with
  | [] -> ()
  | batch ->
      t.batch <- [];
      let upto = List.fold_left (fun acc (hw, _) -> max acc hw) 0 batch in
      let conts = List.rev_map snd batch in
      physical_force t ~upto conts

let () = batch_fire := flush_batch

let enqueue_force t k =
  match t.cfg.group with
  | None -> physical_force t ~upto:(t.base + t.len) [ k ]
  | Some g ->
      t.batch <- (t.base + t.len, k) :: t.batch;
      if List.length t.batch >= g.size then flush_batch t
      else if t.batch_timer = None then
        t.batch_timer <-
          Some
            (Simkernel.Engine.schedule_flat t.engine ~delay:g.timeout
               ~kind:t.batch_kind ~a0:0 ~a1:0 ~a2:0)

let force t r k =
  push t r;
  t.writes <- t.writes + 1;
  t.forced_writes <- t.forced_writes + 1;
  enqueue_force t k

let flush t k =
  if t.durable_upto = t.len && t.batch = [] then k ()
  else enqueue_force t k

let compact t ~keep =
  let kept = ref [] in
  let dropped = ref 0 in
  for i = 0 to t.durable_upto - 1 do
    if keep t.records.(i) then kept := t.records.(i) :: !kept
    else incr dropped
  done;
  let kept = Array.of_list (List.rev !kept) in
  let tail = Array.sub t.records t.durable_upto (t.len - t.durable_upto) in
  let data = Array.append kept tail in
  let capacity = max 32 (Array.length t.records) in
  let arena =
    Array.make capacity (Wal.Log_record.make ~txn:"" ~node:"" Wal.Log_record.End)
  in
  Array.blit data 0 arena 0 (Array.length data);
  t.records <- arena;
  t.base <- t.base + !dropped;
  t.durable_upto <- Array.length kept;
  t.len <- Array.length data;
  !dropped

let crash t =
  t.epoch <- t.epoch + 1;
  t.len <- t.durable_upto;
  t.batch <- [];
  match t.batch_timer with
  | Some ev ->
      Simkernel.Engine.cancel t.engine ev;
      t.batch_timer <- None
  | None -> ()

let slice t n = Array.to_list (Array.sub t.records 0 n)
let durable t = slice t t.durable_upto
let all_records t = slice t t.len

let stats t =
  { writes = t.writes; forced_writes = t.forced_writes; force_ios = t.force_ios }

let reset_stats t =
  t.writes <- 0;
  t.forced_writes <- 0;
  t.force_ios <- 0

let records_for t ~txn =
  List.filter (fun (r : Wal.Log_record.t) -> r.txn = txn) (durable t)
