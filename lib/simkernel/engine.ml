exception Negative_delay of float

(* The agenda orders events by (time, seq).  The [seq] tiebreak gives FIFO
   semantics for same-time events, which is what makes runs deterministic.

   Two interchangeable agenda structures implement that order:

   - [Wheel] (default): a calendar queue.  Pending events hash into
     fixed-width time buckets; the imminent bucket is materialized into a
     sorted run ([cur]) and consumed in order, far-future events sit in a
     small overflow heap until the wheel window slides over them.
     Schedule, cancel and pop are O(1) at the near-future horizons typical
     of 2PC timers (message latencies, retransmit intervals, group-commit
     timeouts); only events beyond the wheel horizon pay an O(log n)
     overflow hop, and a cancel inside the sorted run a binary search.

   - [Heap]: the original binary min-heap, kept as the differential-testing
     oracle (select with [~agenda:`Heap] or TPC_AGENDA=heap).  Both
     structures order events by exactly the same total key, so every run
     is byte-identical whichever agenda is active.

   Events themselves live in a flat arena of parallel arrays (time, seq,
   kind, three int argument slots, optional thunk) rather than one closure
   record per event: scheduling is the hottest allocation site in the whole
   simulator, and the dominant event classes (network deliveries, WAL I/O
   completions, arrival timers) carry int-coded kinds dispatched through a
   per-engine handler table, so their schedule/fire cycle allocates
   nothing but a new clock box when time advances.  The closure path
   ([schedule]) remains for rare cold events.

   A cancel takes the event off the agenda and frees its slot at once, on
   either agenda, so the agenda and the arena hold live events only: the
   protocols arm a timer at every wait and cancel most of them, and a dead
   timer left in place until its time would hold a slot meanwhile and be
   sorted and popped for nothing.  Where a wheel event sits follows from
   its bucket and [wh_mat], so no location is stored; [ev_back] links a
   bucket chain backwards, or holds a slot's index in a heap.

   An [event] handle packs (generation stamp, arena slot) into one int, so
   handles are allocation-free too and a handle outliving its slot (fired,
   cancelled, or the slot recycled) is detected by the stamp and cancels
   nothing. *)

(* Memory a dead world frees is kept for the next world rather than
   handed back to the system and faulted in again; see heap_stubs.c. *)
external keep_freed_memory : unit -> unit = "tpc_keep_freed_memory"

let () = keep_freed_memory ()
let no_thunk () = ()

type event = int

let no_event = -1

type handler = int -> int -> int -> (unit -> unit) -> unit
type kind = int

(* arena slot states, stored in [ev_kind]: *)
let k_free = -1
let k_closure = 0
(* registered flat kinds are >= 1 *)

let slot_bits = 28
let slot_mask = (1 lsl slot_bits) - 1

(* wheel geometry: 4096 buckets of width 0.5 cover a 2048-time-unit
   horizon, comfortably past every protocol timer (latencies are O(1..32),
   retransmit intervals O(25), lock timeouts O(120)).  Only far-future
   work (fault plans, a stream's next element after a long gap)
   overflows. *)
let wheel_nb = 4096
let wheel_mask = wheel_nb - 1
let inv_width = 2.0 (* 1 / bucket width *)
let occ_words = wheel_nb lsr 5 (* 32 occupancy bits per word *)

type stats = {
  events_processed : int;
  events_scheduled : int;
  events_cancelled : int;
  max_queue_depth : int;
  wall_seconds : float;
}

type agenda = Wheel | Heap

(* a binary min-heap of slots, [a.(0)] .. [a.(len - 1)] *)
type heap = { mutable a : int array; mutable len : int }

type t = {
  mutable clock : float;
  impl : agenda;
  (* event arena: parallel arrays indexed by slot *)
  mutable cap : int;
  mutable ev_time : float array;
  mutable ev_seq : int array;
  mutable ev_kind : int array;
  mutable ev_a0 : int array;
  mutable ev_a1 : int array;
  mutable ev_a2 : int array;
  mutable ev_thunk : (unit -> unit) array;
  mutable ev_next : int array; (* bucket chain / freelist link *)
  mutable ev_back : int array;
      (* bucket chain: the previous slot (unused at the head); heap agenda
         and overflow: the slot's index in the heap *)
  mutable ev_stamp : int array; (* bumped when the slot is freed *)
  mutable free_head : int;
  (* flat-kind dispatch table; index 0 is the closure pseudo-kind *)
  mutable handlers : handler array;
  mutable kind_names : string array;
  mutable n_kinds : int;
  hp : heap; (* heap agenda *)
  (* wheel agenda *)
  wh_buckets : int array; (* ring: head slot of chain, -1 = empty *)
  wh_occ : int array; (* occupancy bitmap over ring indices: a bit is set
                         exactly while its bucket holds a chain *)
  mutable wh_mat : int; (* highest materialized absolute bucket *)
  mutable wh_cur : int array; (* sorted imminent run *)
  mutable wh_cur_pos : int;
  mutable wh_cur_len : int;
  ovf : heap; (* far-future slots *)
  (* the stream: elements [st_next] on of [st_times] are reserved but not
     yet on the agenda; slot [st_slot] (-1 for none) holds the one that is *)
  mutable st_times : float array;
  mutable st_next : int;
  mutable st_kind : int;
  mutable st_seq : int; (* element [i] has seq [st_seq + i] *)
  mutable st_slot : int;
  (* profiling counters: purely observational *)
  mutable next_seq : int;
  mutable live : int;
  mutable processed : int;
  mutable cancelled : int;
  mutable queue_hwm : int;
  mutable wall : float;
  ids : Ids.t; (* the world's interned names; cleared by [reset] *)
}

let default_agenda =
  match Sys.getenv_opt "TPC_AGENDA" with
  | Some ("heap" | "HEAP") -> Heap
  | _ -> Wheel

let dummy_handler (_ : int) (_ : int) (_ : int) (_ : unit -> unit) = ()

(* the arena starts small and doubles on demand: it holds live events
   only, and a small world has few *)
let initial_cap = 64

let create ?agenda () =
  let impl =
    match agenda with
    | Some `Heap -> Heap
    | Some `Wheel -> Wheel
    | None -> default_agenda
  in
  let cap = initial_cap in
  let ev_next = Array.init cap (fun i -> i + 1) in
  ev_next.(cap - 1) <- -1;
  {
    clock = 0.0;
    impl;
    cap;
    ev_time = Array.make cap 0.0;
    ev_seq = Array.make cap 0;
    ev_kind = Array.make cap k_free;
    ev_a0 = Array.make cap 0;
    ev_a1 = Array.make cap 0;
    ev_a2 = Array.make cap 0;
    ev_thunk = Array.make cap no_thunk;
    ev_next;
    ev_back = Array.make cap 0;
    ev_stamp = Array.make cap 0;
    free_head = 0;
    handlers = Array.make 8 dummy_handler;
    kind_names = Array.make 8 "closure";
    n_kinds = 1;
    hp = { a = Array.make 64 0; len = 0 };
    wh_buckets = Array.make wheel_nb (-1);
    wh_occ = Array.make occ_words 0;
    wh_mat = -1;
    wh_cur = Array.make 64 0;
    wh_cur_pos = 0;
    wh_cur_len = 0;
    ovf = { a = Array.make 64 0; len = 0 };
    st_times = [||];
    st_next = 0;
    st_kind = k_free;
    st_seq = 0;
    st_slot = -1;
    next_seq = 0;
    live = 0;
    processed = 0;
    cancelled = 0;
    queue_hwm = 0;
    wall = 0.0;
    ids = Ids.create ();
  }

let agenda t = match t.impl with Wheel -> `Wheel | Heap -> `Heap
let agenda_name t = match t.impl with Wheel -> "wheel" | Heap -> "heap"
let arena_capacity t = t.cap

let stats t =
  {
    events_processed = t.processed;
    events_scheduled = t.next_seq;
    events_cancelled = t.cancelled;
    max_queue_depth = t.queue_hwm;
    wall_seconds = t.wall;
  }

let now t = t.clock

(* ------------------------------------------------------------------ *)
(* Arena                                                               *)
(* ------------------------------------------------------------------ *)

(* [a] at twice its length, the new half filled with [x] *)
let doubled a x =
  let n = Array.length a in
  let b = Array.make (2 * n) x in
  Array.blit a 0 b 0 n;
  b

let grow_arena t =
  let cap = t.cap in
  let ncap = 2 * cap in
  t.ev_time <- doubled t.ev_time 0.0;
  t.ev_seq <- doubled t.ev_seq 0;
  t.ev_kind <- doubled t.ev_kind k_free;
  t.ev_a0 <- doubled t.ev_a0 0;
  t.ev_a1 <- doubled t.ev_a1 0;
  t.ev_a2 <- doubled t.ev_a2 0;
  t.ev_thunk <- doubled t.ev_thunk no_thunk;
  t.ev_next <- doubled t.ev_next 0;
  t.ev_back <- doubled t.ev_back 0;
  t.ev_stamp <- doubled t.ev_stamp 0;
  for s = cap to ncap - 1 do
    t.ev_next.(s) <- s + 1
  done;
  t.ev_next.(ncap - 1) <- t.free_head;
  t.free_head <- cap;
  t.cap <- ncap

let alloc_slot t =
  if t.free_head = -1 then grow_arena t;
  let s = t.free_head in
  t.free_head <- Array.unsafe_get t.ev_next s;
  s

let free_slot t s =
  Array.unsafe_set t.ev_kind s k_free;
  Array.unsafe_set t.ev_thunk s no_thunk;
  Array.unsafe_set t.ev_stamp s (Array.unsafe_get t.ev_stamp s + 1);
  Array.unsafe_set t.ev_next s t.free_head;
  t.free_head <- s

(* total order on pending events: (time, seq) lexicographic *)
let slot_lt t a b =
  let ta = Array.unsafe_get t.ev_time a and tb = Array.unsafe_get t.ev_time b in
  ta < tb
  || (ta = tb && Array.unsafe_get t.ev_seq a < Array.unsafe_get t.ev_seq b)

(* ------------------------------------------------------------------ *)
(* Binary heaps: the heap agenda and the wheel's overflow              *)
(* ------------------------------------------------------------------ *)

(* Binary min-heap of slots, shared by the heap agenda and the wheel's
   overflow.  Every write of a slot into a heap records its index in
   [ev_back], so a cancel finds the entry without a search.  The sifts are
   top-level functions taking everything they touch, so a push or pop
   builds no closure. *)
let[@inline] heap_set t a i s =
  Array.unsafe_set a i s;
  Array.unsafe_set t.ev_back s i

let rec sift_up t a i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if slot_lt t a.(i) a.(parent) then begin
      let tmp = a.(i) in
      heap_set t a i a.(parent);
      heap_set t a parent tmp;
      sift_up t a parent
    end
  end

let rec sift_down t a len i =
  let l = (2 * i) + 1 in
  let r = l + 1 in
  let s = if l < len && slot_lt t a.(l) a.(i) then l else i in
  let s = if r < len && slot_lt t a.(r) a.(s) then r else s in
  if s <> i then begin
    let tmp = a.(i) in
    heap_set t a i a.(s);
    heap_set t a s tmp;
    sift_down t a len s
  end

let heap_push t h s =
  if h.len = Array.length h.a then h.a <- doubled h.a 0;
  heap_set t h.a h.len s;
  h.len <- h.len + 1;
  sift_up t h.a (h.len - 1)

(* take out the entry at index [i]: the last entry fills the hole and
   sifts whichever way the order asks *)
let heap_remove t h i =
  let len = h.len - 1 in
  h.len <- len;
  if i < len then begin
    heap_set t h.a i h.a.(len);
    sift_up t h.a i;
    sift_down t h.a len i
  end

let heap_pop t h =
  let top = h.a.(0) in
  heap_remove t h 0;
  top

(* ------------------------------------------------------------------ *)
(* Wheel agenda                                                        *)
(* ------------------------------------------------------------------ *)

(* Bucket of a timestamp.  The mapping only partitions events — ordering is
   enforced by the sorted [cur] run — so all that matters is monotonicity,
   which float multiply + truncate gives for the non-negative times the
   engine admits. *)
let bidx time = int_of_float (time *. inv_width)

let occ_set t rb =
  let w = rb lsr 5 in
  t.wh_occ.(w) <- t.wh_occ.(w) lor (1 lsl (rb land 31))

let occ_clear t rb =
  let w = rb lsr 5 in
  t.wh_occ.(w) <- t.wh_occ.(w) land lnot (1 lsl (rb land 31))

let lowest_bit v =
  let rec go v i = if v land 1 = 1 then i else go (v asr 1) (i + 1) in
  go v 0

(* first occupied ring index in the [remaining] occupancy words from word
   [i] on, with wrap; -1 when they are all empty *)
let rec occ_scan t i remaining =
  if remaining = 0 then -1
  else
    let wi = i land (occ_words - 1) in
    let v = t.wh_occ.(wi) in
    if v <> 0 then (wi lsl 5) + lowest_bit v else occ_scan t (i + 1) (remaining - 1)

(* first occupied ring index at or after [rb0], scanning the whole ring
   with wrap; -1 when the ring is empty *)
let occ_next t rb0 =
  let w0 = rb0 lsr 5 in
  let b0 = rb0 land 31 in
  let masked = t.wh_occ.(w0) land ((-1) lsl b0) in
  if masked <> 0 then (w0 lsl 5) + lowest_bit masked
  else occ_scan t (w0 + 1) occ_words

(* A chain's head is the newest event of its bucket, and only the slots
   behind it keep a back link.  A bucket's bit is set when it gains its
   first event and cleared when it loses its last. *)
let ring_push t s b =
  let rb = b land wheel_mask in
  let head = t.wh_buckets.(rb) in
  Array.unsafe_set t.ev_next s head;
  t.wh_buckets.(rb) <- s;
  if head >= 0 then Array.unsafe_set t.ev_back head s else occ_set t rb

let ring_remove t s b =
  let rb = b land wheel_mask in
  let next = Array.unsafe_get t.ev_next s in
  if t.wh_buckets.(rb) = s then begin
    t.wh_buckets.(rb) <- next;
    if next < 0 then occ_clear t rb
  end
  else begin
    let prev = Array.unsafe_get t.ev_back s in
    Array.unsafe_set t.ev_next prev next;
    if next >= 0 then Array.unsafe_set t.ev_back next prev
  end

(* slide the wheel window after [wh_mat] moved: far-future events whose
   bucket is now inside the ring move out of the overflow heap *)
let migrate_overflow t =
  let horizon = t.wh_mat + wheel_nb in
  while t.ovf.len > 0 && bidx t.ev_time.(t.ovf.a.(0)) <= horizon do
    let s = heap_pop t t.ovf in
    ring_push t s (bidx t.ev_time.(s))
  done

(* in-place sort of cur[lo..hi) by (time, seq); insertion sort for short
   runs, median-of-3 quicksort above.  Keys are unique, so any correct
   sort yields the one deterministic order. *)
let rec sort_run t a lo hi =
  let n = hi - lo in
  if n <= 24 then
    for i = lo + 1 to hi - 1 do
      let s = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && slot_lt t s a.(!j) do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- s
    done
  else begin
    let mid = lo + (n / 2) in
    let a0 = a.(lo) and a1 = a.(mid) and a2 = a.(hi - 1) in
    let pivot =
      if slot_lt t a0 a1 then
        if slot_lt t a1 a2 then a1 else if slot_lt t a0 a2 then a2 else a0
      else if slot_lt t a0 a2 then a0
      else if slot_lt t a1 a2 then a2
      else a1
    in
    let i = ref lo and j = ref (hi - 1) in
    while !i <= !j do
      while slot_lt t a.(!i) pivot do
        incr i
      done;
      while slot_lt t pivot a.(!j) do
        decr j
      done;
      if !i <= !j then begin
        let tmp = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- tmp;
        incr i;
        decr j
      end
    done;
    sort_run t a lo (!j + 1);
    sort_run t a !i hi
  end

(* length of the bucket chain from slot [s] *)
let rec chain_length t s n = if s = -1 then n else chain_length t t.ev_next.(s) (n + 1)

(* copy the bucket chain from slot [s] into [cur] from index [i] on *)
let rec chain_fill t s i =
  if s <> -1 then begin
    t.wh_cur.(i) <- s;
    chain_fill t t.ev_next.(s) (i + 1)
  end

(* pull ring bucket [b] into a fresh sorted [cur] run *)
let materialize t b =
  let rb = b land wheel_mask in
  occ_clear t rb;
  let n = chain_length t t.wh_buckets.(rb) 0 in
  if n > Array.length t.wh_cur then
    t.wh_cur <- Array.make (max n (2 * Array.length t.wh_cur)) 0;
  chain_fill t t.wh_buckets.(rb) 0;
  t.wh_buckets.(rb) <- -1;
  sort_run t t.wh_cur 0 n;
  t.wh_cur_pos <- 0;
  t.wh_cur_len <- n;
  t.wh_mat <- b;
  migrate_overflow t

(* make cur hold the next pending event; false when the agenda is empty *)
let rec wheel_ensure t =
  if t.wh_cur_pos < t.wh_cur_len then true
  else begin
    let rb0 = (t.wh_mat + 1) land wheel_mask in
    let rb = occ_next t rb0 in
    if rb >= 0 then begin
      (* ring index back to the absolute bucket inside the window *)
      let b = t.wh_mat + 1 + ((rb - rb0) land wheel_mask) in
      materialize t b;
      true
    end
    else if t.ovf.len = 0 then false
    else begin
      (* ring empty: jump the window to the earliest far-future bucket *)
      t.wh_mat <- bidx t.ev_time.(t.ovf.a.(0)) - 1;
      migrate_overflow t;
      wheel_ensure t
    end
  end

(* first index of the unfired run [cur_pos, cur_len) whose slot does not
   precede [s] in (time, seq) order: where [s] sits, or where it belongs *)
let cur_search t s =
  let lo = ref t.wh_cur_pos and hi = ref t.wh_cur_len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if slot_lt t t.wh_cur.(mid) s then lo := mid + 1 else hi := mid
  done;
  !lo

(* insert into the already-materialized sorted run (bucket <= wh_mat) *)
let cur_insert t s =
  if t.wh_cur_len = Array.length t.wh_cur then begin
    if t.wh_cur_pos > 0 then begin
      (* compact the fired prefix away instead of growing *)
      Array.blit t.wh_cur t.wh_cur_pos t.wh_cur 0 (t.wh_cur_len - t.wh_cur_pos);
      t.wh_cur_len <- t.wh_cur_len - t.wh_cur_pos;
      t.wh_cur_pos <- 0
    end
    else t.wh_cur <- doubled t.wh_cur 0
  end;
  let i = cur_search t s in
  Array.blit t.wh_cur i t.wh_cur (i + 1) (t.wh_cur_len - i);
  t.wh_cur.(i) <- s;
  t.wh_cur_len <- t.wh_cur_len + 1

(* the blit keeps the rest of the run sorted *)
let cur_remove t s =
  let i = cur_search t s in
  Array.blit t.wh_cur (i + 1) t.wh_cur i (t.wh_cur_len - i - 1);
  t.wh_cur_len <- t.wh_cur_len - 1

let wheel_insert t s =
  let b = bidx t.ev_time.(s) in
  if b <= t.wh_mat then cur_insert t s
  else if b - t.wh_mat <= wheel_nb then ring_push t s b
  else heap_push t t.ovf s

(* An event stays where [wheel_insert]'s rule puts it as the window
   moves: [wh_mat] passes a bucket only by materializing it, and every
   move migrates the overflow events the window now covers.  So the rule
   finds it again, and no location is stored. *)
let wheel_remove t s =
  let b = bidx t.ev_time.(s) in
  if b <= t.wh_mat then cur_remove t s
  else if b - t.wh_mat <= wheel_nb then ring_remove t s b
  else heap_remove t t.ovf t.ev_back.(s)

(* ------------------------------------------------------------------ *)
(* Unified agenda ops                                                  *)
(* ------------------------------------------------------------------ *)

let agenda_insert t s =
  match t.impl with Wheel -> wheel_insert t s | Heap -> heap_push t t.hp s

let agenda_remove t s =
  match t.impl with
  | Wheel -> wheel_remove t s
  | Heap -> heap_remove t t.hp t.ev_back.(s)

(* next pending slot without removing it; -1 when empty *)
let agenda_peek t =
  match t.impl with
  | Wheel -> if wheel_ensure t then t.wh_cur.(t.wh_cur_pos) else -1
  | Heap -> if t.hp.len > 0 then t.hp.a.(0) else -1

let agenda_pop t =
  match t.impl with
  | Wheel ->
      if wheel_ensure t then begin
        let s = Array.unsafe_get t.wh_cur t.wh_cur_pos in
        t.wh_cur_pos <- t.wh_cur_pos + 1;
        s
      end
      else -1
  | Heap -> if t.hp.len > 0 then heap_pop t t.hp else -1

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

(* Put slot [s], whose time the caller has already written into
   [ev_time], on the agenda.  The time is written in place because a
   float passed to a function that is not inlined is boxed. *)
let[@inline] place t s ~seq ~kind ~a0 ~a1 ~a2 f =
  Array.unsafe_set t.ev_seq s seq;
  Array.unsafe_set t.ev_kind s kind;
  Array.unsafe_set t.ev_a0 s a0;
  Array.unsafe_set t.ev_a1 s a1;
  Array.unsafe_set t.ev_a2 s a2;
  Array.unsafe_set t.ev_thunk s f;
  agenda_insert t s

let schedule_slot t s ~kind ~a0 ~a1 ~a2 f =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  place t s ~seq ~kind ~a0 ~a1 ~a2 f;
  t.live <- t.live + 1;
  if t.live > t.queue_hwm then t.queue_hwm <- t.live;
  (Array.unsafe_get t.ev_stamp s lsl slot_bits) lor s

let schedule_at t ~time f =
  if time < t.clock then raise (Negative_delay (time -. t.clock));
  let s = alloc_slot t in
  Array.unsafe_set t.ev_time s time;
  schedule_slot t s ~kind:k_closure ~a0:0 ~a1:0 ~a2:0 f

let schedule t ~delay f =
  if delay < 0.0 then raise (Negative_delay delay);
  let s = alloc_slot t in
  Array.unsafe_set t.ev_time s (t.clock +. delay);
  schedule_slot t s ~kind:k_closure ~a0:0 ~a1:0 ~a2:0 f

let register_kind t ~name f =
  let k = t.n_kinds in
  if k = Array.length t.handlers then begin
    t.handlers <- Array.append t.handlers (Array.make k dummy_handler);
    t.kind_names <- Array.append t.kind_names (Array.make k "")
  end;
  t.handlers.(k) <- f;
  t.kind_names.(k) <- name;
  t.n_kinds <- k + 1;
  k

let kind_names t = Array.to_list (Array.sub t.kind_names 0 t.n_kinds)

let schedule_flat t ~delay ~kind ~a0 ~a1 ~a2 =
  if delay < 0.0 then raise (Negative_delay delay);
  let s = alloc_slot t in
  Array.unsafe_set t.ev_time s (t.clock +. delay);
  schedule_slot t s ~kind ~a0 ~a1 ~a2 no_thunk

let schedule_flat_at t ~time ~kind ~a0 ~a1 ~a2 =
  if time < t.clock then raise (Negative_delay (time -. t.clock));
  let s = alloc_slot t in
  Array.unsafe_set t.ev_time s time;
  schedule_slot t s ~kind ~a0 ~a1 ~a2 no_thunk

(* ------------------------------------------------------------------ *)
(* Streams                                                             *)
(* ------------------------------------------------------------------ *)

(* Only a stream's next element is on the agenda.  The others wait in
   [st_times] with their seqs reserved and counted as live, so the agenda
   pops, and [pending] reads, what scheduling them all at once would give.
   Placing an element copies its time from one float array to another, so
   nothing is boxed; the array is dropped once its last element is
   placed. *)
let stream_place t =
  let i = t.st_next in
  let s = alloc_slot t in
  Array.unsafe_set t.ev_time s (Array.unsafe_get t.st_times i);
  place t s ~seq:(t.st_seq + i) ~kind:t.st_kind ~a0:i ~a1:0 ~a2:0 no_thunk;
  t.st_slot <- s;
  t.st_next <- i + 1;
  if t.st_next = Array.length t.st_times then t.st_times <- [||]

let stream t ~kind times =
  if t.st_slot >= 0 then invalid_arg "Engine.stream: a stream is still running";
  let n = Array.length times in
  let bad () = invalid_arg "Engine.stream: times must not decrease or precede now" in
  if n > 0 && not (times.(0) >= t.clock) then bad ();
  for i = 1 to n - 1 do
    if not (times.(i) >= times.(i - 1)) then bad ()
  done;
  if n > 0 then begin
    t.st_times <- times;
    t.st_next <- 0;
    t.st_kind <- kind;
    t.st_seq <- t.next_seq;
    t.next_seq <- t.next_seq + n;
    t.live <- t.live + n;
    if t.live > t.queue_hwm then t.queue_hwm <- t.live;
    stream_place t
  end

(* ------------------------------------------------------------------ *)
(* Cancellation                                                        *)
(* ------------------------------------------------------------------ *)

(* A handle's stamp matches only while its event is on the agenda:
   firing, cancelling and [reset] each bump the stamp as they free the
   slot.  So cancelling a fired, cancelled or recycled handle is a no-op,
   and a pending event leaves the agenda and frees its slot at once. *)
let cancel t (h : event) =
  let s = h land slot_mask in
  if s < t.cap && Array.unsafe_get t.ev_stamp s = h lsr slot_bits then begin
    agenda_remove t s;
    free_slot t s;
    t.live <- t.live - 1;
    t.cancelled <- t.cancelled + 1
  end

let pending t = t.live

(* ------------------------------------------------------------------ *)
(* Firing                                                              *)
(* ------------------------------------------------------------------ *)

let step t =
  let s = agenda_pop t in
  if s < 0 then false
  else begin
    let kind = Array.unsafe_get t.ev_kind s in
    let time = Array.unsafe_get t.ev_time s in
    let a0 = Array.unsafe_get t.ev_a0 s in
    let a1 = Array.unsafe_get t.ev_a1 s in
    let a2 = Array.unsafe_get t.ev_a2 s in
    let f = Array.unsafe_get t.ev_thunk s in
    (* free before firing: a late cancel of this handle is a no-op, and
       the handler may recycle the slot immediately *)
    free_slot t s;
    t.live <- t.live - 1;
    (* a stream's next element takes the place of the one firing *)
    if s = t.st_slot then
      if t.st_next < Array.length t.st_times then stream_place t
      else t.st_slot <- -1;
    (* the clock stays boxed, because [now] is read far more often than
       time advances; a box is made only when it does *)
    if time <> t.clock then t.clock <- time;
    t.processed <- t.processed + 1;
    if kind = k_closure then f () else t.handlers.(kind) a0 a1 a2 f;
    true
  end

(* One monotonic timestamp pair per [run]/[run_until] call — not per event
   batch — keeps the profiling overhead off the event hot path, and the
   monotonic clock keeps wall_seconds immune to NTP steps. *)
let run t =
  let t0 = Monotonic.now_ns () in
  let rec loop () = if step t then loop () in
  loop ();
  t.wall <- t.wall +. Monotonic.elapsed_seconds ~since:t0

let run_until t horizon =
  let t0 = Monotonic.now_ns () in
  let rec loop () =
    let s = agenda_peek t in
    if s >= 0 && t.ev_time.(s) <= horizon then begin
      ignore (step t);
      loop ()
    end
    else if t.clock < horizon then t.clock <- horizon
  in
  loop ();
  t.wall <- t.wall +. Monotonic.elapsed_seconds ~since:t0

(* ------------------------------------------------------------------ *)
(* Reuse                                                               *)
(* ------------------------------------------------------------------ *)

(* Return the engine to the fresh-create state while keeping every arena
   at its high-water capacity: the driver recycles one engine per domain
   across sweep/chaos cells, so small cells stop paying allocation and
   warm-up costs per cell.  A slot still on the agenda is freed as
   [free_slot] would, stamp bumped so handles from the previous life
   cannot cancel events of the next one; a free slot's stamp already
   moved when it was freed and its thunk was cleared then, so only the
   freelist is rebuilt over it. *)
let reset t =
  t.clock <- 0.0;
  t.next_seq <- 0;
  t.live <- 0;
  t.processed <- 0;
  t.cancelled <- 0;
  t.queue_hwm <- 0;
  t.wall <- 0.0;
  t.n_kinds <- 1;
  Ids.clear t.ids;
  for s = 0 to t.cap - 1 do
    if Array.unsafe_get t.ev_kind s <> k_free then begin
      t.ev_kind.(s) <- k_free;
      t.ev_thunk.(s) <- no_thunk;
      t.ev_stamp.(s) <- t.ev_stamp.(s) + 1
    end;
    t.ev_next.(s) <- s + 1
  done;
  t.ev_next.(t.cap - 1) <- -1;
  t.free_head <- 0;
  t.hp.len <- 0;
  (* only an occupied bucket holds a chain, so clear those rather than
     the whole ring: a small world leaves few *)
  for w = 0 to occ_words - 1 do
    let v = t.wh_occ.(w) in
    if v <> 0 then begin
      for b = 0 to 31 do
        if v land (1 lsl b) <> 0 then t.wh_buckets.((w lsl 5) lor b) <- -1
      done;
      t.wh_occ.(w) <- 0
    end
  done;
  t.wh_mat <- -1;
  t.wh_cur_pos <- 0;
  t.wh_cur_len <- 0;
  t.ovf.len <- 0;
  t.st_times <- [||];
  t.st_slot <- -1

let ids t = t.ids
