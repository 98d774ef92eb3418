(* Per-node write-ahead log kept as packed rows; see log.mli.

   A row is 12 bytes of a row chunk: the transaction id (32 bits), a code
   (16 bits: the kind's code in bits 0-3, the writer id above), the
   payload's length (16 bits; [long] for a payload kept whole in [longs])
   and its address (32 bits: the payload chunk in the high 16 bits and
   the offset in the low 16, or the index in [longs]).  Payloads are
   packed in row order and never straddle a chunk, so their addresses
   rise with the row number; compaction relies on that to move rows and
   payloads down in place.

   Force marks are absolute row numbers, [base + position]: compaction
   adds what it drops to [base], so an I/O in flight or a batched force
   still hardens exactly the rows it covered. *)

module Ids = Simkernel.Ids
module R = Log_record

type group = { size : int; timeout : float }
type config = { io_latency : float; group : group option }

type stats = { writes : int; forced_writes : int; force_ios : int }

let chunk_bits = 12
let chunk_rows = 1 lsl chunk_bits
let first_rows = 16
let stride = 12

(* field offsets within a row *)
let f_txn = 0
let f_code = 4
let f_len = 6
let f_addr = 8

let kind_bits = 4
let max_writers = 1 lsl (16 - kind_bits)
let pay_bits = 16
let pay_size = 1 lsl pay_bits
let first_pay = 256
let long = 0xFFFF

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

type t = {
  engine : Simkernel.Engine.t;
  ids : Ids.t;  (* the engine's name table: rows keep transaction ids *)
  node_name : string;
  cfg : config;
  mutable writers : string array;  (* writer id -> name *)
  mutable n_writers : int;
  mutable chunks : Bytes.t array;  (* row chunks; [Bytes.empty] unallocated *)
  mutable len : int;
  mutable durable_upto : int; (* rows 0 .. durable_upto-1 are durable *)
  mutable base : int;  (* rows compaction has dropped, ever *)
  mutable pays : Bytes.t array;  (* payload chunks, all full but the first *)
  mutable pay_chunk : int;  (* the chunk the next payload goes to *)
  mutable pay_used : int;  (* bytes used in it *)
  mutable longs : string array;  (* payloads of [long] bytes or more *)
  mutable n_longs : int;
  mutable writes : int;
  mutable forced_writes : int;
  mutable force_ios : int;
  (* Waiters.  A force hands a token back once its record is durable:
     to the resume handler its writer registered ([resumers]), or, for a
     closure [force] and [flush] wrap, by running the closure.  A waiter
     is a node of a freelist-chained arena (writer, or [closure_waiter];
     token; closure; link), chained in force order to its I/O or to the
     group-commit batch.  An I/O completion schedules as a flat event:
     a0 is the head of its chain, a1 the absolute mark, a2 the epoch the
     force was issued under. *)
  mutable wt_writer : int array;
  mutable wt_token : int array;
  mutable wt_fn : (unit -> unit) array;
  mutable wt_next : int array;
  mutable wt_free : int;
  mutable resumers : (int -> unit) array;  (* writer id -> resume handler *)
  (* group-commit state: the batch's chain, oldest first *)
  mutable batch_head : int;
  mutable batch_tail : int;
  mutable batch_len : int;
  mutable batch_upto : int;  (* the batch's highest absolute mark *)
  mutable batch_timer : Simkernel.Engine.event option;
  mutable epoch : int; (* bumped on crash so in-flight I/O completions are ignored *)
  io_kind : Simkernel.Engine.kind;
  batch_kind : Simkernel.Engine.kind;
}

let default_config = { io_latency = 0.5; group = None }

(* forward reference: the batch-timer kind fires [flush_batch], which is
   defined below [create] *)
let batch_fire : (t -> unit) ref = ref (fun _ -> ())

let closure_waiter = -1

(* Hand each waiter of the chain from [w] its token, oldest first; with
   [run] false (the log crashed since the force) only free them.  A waiter
   is freed before it resumes, so a resume that forces again reuses it. *)
let rec resume_chain t w run =
  if w >= 0 then begin
    let next = t.wt_next.(w) and writer = t.wt_writer.(w) in
    let token = t.wt_token.(w) in
    t.wt_next.(w) <- t.wt_free;
    t.wt_free <- w;
    if writer = closure_waiter then begin
      let fn = t.wt_fn.(w) in
      t.wt_fn.(w) <- ignore;
      if run then fn ()
    end
    else if run && writer < Array.length t.resumers then t.resumers.(writer) token;
    resume_chain t next run
  end

let io_complete t head upto epoch =
  let current = t.epoch = epoch in
  if current then begin
    let upto = upto - t.base in
    if upto > t.durable_upto then t.durable_upto <- upto
  end;
  resume_chain t head current

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
  let t =
    {
      engine;
      ids = Simkernel.Engine.ids engine;
      node_name = node;
      cfg = config;
      writers = [| ""; ""; ""; "" |];
      n_writers = 0;
      chunks = [||];
      len = 0;
      durable_upto = 0;
      base = 0;
      pays = [||];
      pay_chunk = 0;
      pay_used = 0;
      longs = [||];
      n_longs = 0;
      writes = 0;
      forced_writes = 0;
      force_ios = 0;
      wt_writer = [||];
      wt_token = [||];
      wt_fn = [||];
      wt_next = [||];
      wt_free = -1;
      resumers = [||];
      batch_head = -1;
      batch_tail = -1;
      batch_len = 0;
      batch_upto = 0;
      batch_timer = None;
      epoch = 0;
      io_kind;
      batch_kind;
    }
  in
  tref := Some t;
  t

let node t = t.node_name
let config t = t.cfg

(* ------------------------------------------------------------------ *)
(* Names                                                               *)
(* ------------------------------------------------------------------ *)

let rec scan_writers writers name i n =
  if i = n then -1
  else
    let w = writers.(i) in
    if w == name || String.equal w name then i
    else scan_writers writers name (i + 1) n

let find_writer t name = scan_writers t.writers name 0 t.n_writers

let writer t name =
  match find_writer t name with
  | -1 ->
      let id = t.n_writers in
      if id = max_writers then invalid_arg "Wal.Log.writer: too many writers";
      if id = Array.length t.writers then begin
        let bigger = Array.make (2 * id) "" in
        Array.blit t.writers 0 bigger 0 id;
        t.writers <- bigger
      end;
      t.writers.(id) <- name;
      t.n_writers <- id + 1;
      id
  | id -> id

let writer_name t id =
  if id < 0 || id >= t.n_writers then invalid_arg "Wal.Log.writer_name";
  t.writers.(id)

let txn_name t id = Ids.name t.ids id

(* ------------------------------------------------------------------ *)
(* Storage                                                             *)
(* ------------------------------------------------------------------ *)

let set_slot arr i x empty =
  let arr =
    if i < Array.length arr then arr
    else begin
      let bigger = Array.make (max 4 (2 * Array.length arr)) empty in
      Array.blit arr 0 bigger 0 (Array.length arr);
      bigger
    end
  in
  arr.(i) <- x;
  arr

(* Make room for row [r]: the first chunk doubles up to a full chunk,
   later ones are allocated full (or reused after a crash or a
   compaction). *)
let row_room t r =
  let c = r lsr chunk_bits in
  if c = 0 then begin
    let have = if Array.length t.chunks = 0 then 0 else Bytes.length t.chunks.(0) in
    let b = Bytes.create (min (chunk_rows * stride) (max (first_rows * stride) (2 * have))) in
    if have > 0 then Bytes.blit t.chunks.(0) 0 b 0 have;
    t.chunks <- set_slot t.chunks 0 b Bytes.empty
  end
  else t.chunks <- set_slot t.chunks c (Bytes.create (chunk_rows * stride)) Bytes.empty

let[@inline] row_at t r =
  let c = r lsr chunk_bits and j = (r land (chunk_rows - 1)) * stride in
  if c >= Array.length t.chunks || j >= Bytes.length t.chunks.(c) then row_room t r;
  j

let[@inline] put_row t ~txn ~code ~len ~addr =
  let r = t.len in
  let j = row_at t r in
  let b = t.chunks.(r lsr chunk_bits) in
  set32 b (j + f_txn) (Int32.of_int txn);
  set16 b (j + f_code) code;
  set16 b (j + f_len) len;
  set32 b (j + f_addr) (Int32.of_int addr);
  t.len <- r + 1

(* Make [n] free bytes at the payload cursor: the first chunk grows from
   small up to a full chunk; past it the cursor moves to the next full
   chunk. *)
let pay_room t n =
  let c = t.pay_chunk in
  let have = if Array.length t.pays = 0 then 0 else Bytes.length t.pays.(c) in
  if t.pay_used + n > have then
    if c = 0 && t.pay_used + n <= pay_size then begin
      let size = min pay_size (max (t.pay_used + n) (max first_pay (2 * have))) in
      let b = Bytes.create size in
      if have > 0 then Bytes.blit t.pays.(0) 0 b 0 t.pay_used;
      t.pays <- set_slot t.pays 0 b Bytes.empty
    end
    else begin
      let c = c + 1 in
      if c >= Array.length t.pays || Bytes.length t.pays.(c) <> pay_size then
        t.pays <- set_slot t.pays c (Bytes.create pay_size) Bytes.empty;
      t.pay_chunk <- c;
      t.pay_used <- 0
    end

(* Copy a payload into the arena; answer its address. *)
let put_payload t src off n =
  if n >= long then begin
    let i = t.n_longs in
    t.longs <- set_slot t.longs i (Bytes.sub_string src off n) "";
    t.n_longs <- i + 1;
    i
  end
  else begin
    pay_room t n;
    let addr = (t.pay_chunk lsl pay_bits) lor t.pay_used in
    Bytes.blit src off t.pays.(t.pay_chunk) t.pay_used n;
    t.pay_used <- t.pay_used + n;
    addr
  end

let[@inline] code kind ~writer = R.code kind lor (writer lsl kind_bits)

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let append_row t ~txn ~writer kind =
  put_row t ~txn ~code:(code kind ~writer) ~len:0 ~addr:0;
  t.writes <- t.writes + 1

let append_payload t ~txn ~writer kind b n =
  if n = 0 then append_row t ~txn ~writer kind
  else begin
    let addr = put_payload t b 0 n in
    put_row t ~txn ~code:(code kind ~writer) ~len:(min n long) ~addr;
    t.writes <- t.writes + 1
  end

let grow a n x =
  let b = Array.make n x in
  Array.blit a 0 b 0 (Array.length a);
  b

(* A new waiter, unchained.  The arena starts empty and doubles; its
   closure column exists only once a closure waits. *)
let waiter t ~writer ~token fn =
  if t.wt_free < 0 then begin
    let cap = Array.length t.wt_next in
    let cap' = max 4 (2 * cap) in
    t.wt_writer <- grow t.wt_writer cap' 0;
    t.wt_token <- grow t.wt_token cap' 0;
    t.wt_next <- grow t.wt_next cap' (-1);
    for i = cap to cap' - 2 do
      t.wt_next.(i) <- i + 1
    done;
    t.wt_free <- cap
  end;
  let w = t.wt_free in
  t.wt_free <- t.wt_next.(w);
  t.wt_writer.(w) <- writer;
  t.wt_token.(w) <- token;
  t.wt_next.(w) <- -1;
  if writer = closure_waiter then begin
    if w >= Array.length t.wt_fn then
      t.wt_fn <- grow t.wt_fn (Array.length t.wt_next) ignore;
    t.wt_fn.(w) <- fn
  end;
  w

let on_durable t ~writer f =
  if writer < 0 || writer >= t.n_writers then invalid_arg "Wal.Log.on_durable";
  let n = Array.length t.resumers in
  if writer >= n then t.resumers <- grow t.resumers (max (writer + 1) (2 * n)) ignore;
  t.resumers.(writer) <- f

(* One physical I/O hardening everything up to the absolute mark [upto];
   the waiters chained from [head] resume after the I/O latency, unless a
   crash bumped the epoch. *)
let physical_force t ~upto head =
  t.force_ios <- t.force_ios + 1;
  ignore
    (Simkernel.Engine.schedule_flat t.engine ~delay:t.cfg.io_latency
       ~kind:t.io_kind ~a0:head ~a1:upto ~a2:t.epoch)

let cancel_batch_timer t =
  match t.batch_timer with
  | Some ev ->
      Simkernel.Engine.cancel t.engine ev;
      t.batch_timer <- None
  | None -> ()

(* Detach the batch's chain, answering its head. *)
let take_batch t =
  let head = t.batch_head in
  t.batch_head <- -1;
  t.batch_tail <- -1;
  t.batch_len <- 0;
  t.batch_upto <- 0;
  head

let flush_batch t =
  cancel_batch_timer t;
  if t.batch_head >= 0 then begin
    let upto = t.batch_upto in
    physical_force t ~upto (take_batch t)
  end

let () = batch_fire := flush_batch

let enqueue_force t w =
  let mark = t.base + t.len in
  match t.cfg.group with
  | None -> physical_force t ~upto:mark w
  | Some g ->
      if t.batch_tail < 0 then t.batch_head <- w
      else t.wt_next.(t.batch_tail) <- w;
      t.batch_tail <- w;
      t.batch_len <- t.batch_len + 1;
      if mark > t.batch_upto then t.batch_upto <- mark;
      if t.batch_len >= g.size then flush_batch t
      else if t.batch_timer = None then
        t.batch_timer <-
          Some
            (Simkernel.Engine.schedule_flat t.engine ~delay:g.timeout
               ~kind:t.batch_kind ~a0:0 ~a1:0 ~a2:0)

let force_row t ~txn ~writer kind token =
  append_row t ~txn ~writer kind;
  t.forced_writes <- t.forced_writes + 1;
  enqueue_force t (waiter t ~writer ~token ignore)

let append t (r : R.t) =
  append_payload t ~txn:(Ids.intern t.ids r.txn) ~writer:(writer t r.node) r.kind
    (Bytes.unsafe_of_string r.payload) (String.length r.payload)

let force t r k =
  append t r;
  t.forced_writes <- t.forced_writes + 1;
  enqueue_force t (waiter t ~writer:closure_waiter ~token:0 k)

let flush t k =
  if t.durable_upto = t.len && t.batch_head < 0 then k ()
  else enqueue_force t (waiter t ~writer:closure_waiter ~token:0 k)

let crash t =
  t.epoch <- t.epoch + 1;
  t.len <- t.durable_upto;
  cancel_batch_timer t;
  resume_chain t (take_batch t) false

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let rows t = t.len
let durable_rows t = t.durable_upto

let[@inline] chunk t i =
  if i < 0 || i >= t.len then invalid_arg "Wal.Log: no such row";
  t.chunks.(i lsr chunk_bits)

let[@inline] off i = (i land (chunk_rows - 1)) * stride
let row_txn t i = Int32.to_int (get32 (chunk t i) (off i + f_txn))
let row_code t i = get16 (chunk t i) (off i + f_code)
let row_writer t i = row_code t i lsr kind_bits
let row_kind t i = R.of_code (row_code t i land ((1 lsl kind_bits) - 1))
let row_len t i = get16 (chunk t i) (off i + f_len)
let row_addr t i = Int32.to_int (get32 (chunk t i) (off i + f_addr)) land 0xFFFF_FFFF

let row_payload_length t i =
  match row_len t i with
  | l when l = long -> String.length t.longs.(row_addr t i)
  | l -> l

let row_payload_bytes t i =
  let a = row_addr t i in
  match row_len t i with
  | 0 -> Bytes.empty
  | l when l = long -> Bytes.unsafe_of_string t.longs.(a)
  | _ -> t.pays.(a lsr pay_bits)

let row_payload_offset t i =
  match row_len t i with
  | 0 -> 0
  | l when l = long -> 0
  | _ -> row_addr t i land (pay_size - 1)

let row_payload t i =
  let a = row_addr t i in
  match row_len t i with
  | 0 -> ""
  | l when l = long -> t.longs.(a)
  | l -> Bytes.sub_string t.pays.(a lsr pay_bits) (a land (pay_size - 1)) l

(* ------------------------------------------------------------------ *)
(* Compaction                                                          *)
(* ------------------------------------------------------------------ *)

(* Move row [i] down to row [j] (j <= i), its payload to the write cursor
   ([wc], [wu]; [wl] in [longs]), which never passes the read position:
   payload addresses rise with the row number. *)
let compact_rows t ~keep =
  let d = t.durable_upto in
  let kept = Bytes.create d in
  for i = 0 to d - 1 do
    Bytes.unsafe_set kept i (if keep i then '\001' else '\000')
  done;
  let j = ref 0 and wc = ref 0 and wu = ref 0 and wl = ref 0 in
  for i = 0 to t.len - 1 do
    if i >= d || Bytes.get kept i = '\001' then begin
      let txn = row_txn t i and code = row_code t i in
      let len = row_len t i and addr = row_addr t i in
      let addr =
        if len = 0 then 0
        else if len = long then begin
          let l = !wl in
          t.longs.(l) <- t.longs.(addr);
          wl := l + 1;
          l
        end
        else begin
          if !wu + len > Bytes.length t.pays.(!wc) then begin
            incr wc;
            wu := 0
          end;
          Bytes.blit t.pays.(addr lsr pay_bits) (addr land (pay_size - 1))
            t.pays.(!wc) !wu len;
          let a = (!wc lsl pay_bits) lor !wu in
          wu := !wu + len;
          a
        end
      in
      let b = t.chunks.(!j lsr chunk_bits) and o = off !j in
      set32 b (o + f_txn) (Int32.of_int txn);
      set16 b (o + f_code) code;
      set16 b (o + f_len) len;
      set32 b (o + f_addr) (Int32.of_int addr);
      incr j
    end
  done;
  let dropped = t.len - !j in
  Array.fill t.longs !wl (t.n_longs - !wl) "";
  t.len <- !j;
  t.durable_upto <- d - dropped;
  t.base <- t.base + dropped;
  t.pay_chunk <- !wc;
  t.pay_used <- !wu;
  t.n_longs <- !wl;
  dropped

(* ------------------------------------------------------------------ *)
(* Records                                                             *)
(* ------------------------------------------------------------------ *)

let record t i =
  {
    R.txn = txn_name t (row_txn t i);
    node = writer_name t (row_writer t i);
    kind = row_kind t i;
    payload = row_payload t i;
  }

let compact t ~keep = compact_rows t ~keep:(fun i -> keep (record t i))
let slice t n = List.init n (record t)
let durable t = slice t t.durable_upto
let all_records t = slice t t.len

let records_for t ~txn =
  match Ids.find t.ids txn with
  | -1 -> []
  | id ->
      let rec go i acc =
        if i < 0 then acc
        else go (i - 1) (if row_txn t i = id then record t i :: acc else acc)
      in
      go (t.durable_upto - 1) []

let stats t =
  { writes = t.writes; forced_writes = t.forced_writes; force_ios = t.force_ios }

let reset_stats t =
  t.writes <- 0;
  t.forced_writes <- 0;
  t.force_ios <- 0
