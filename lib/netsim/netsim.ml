module Names = Hashtbl.Make (String)
module Links = Hashtbl.Make (Int)

module Make (P : sig
  type t
end) =
struct
  type handler = src:string -> P.t list -> unit

  type node_state = {
    name : string;
    mutable handler : handler;
    mutable up : bool;
    mutable sent : int;
    mutable received : int;
  }

  type t = {
    engine : Simkernel.Engine.t;
    default_latency : float;
    nodes : int Names.t; (* name -> index into node_arr *)
    mutable node_arr : node_state array;
    mutable n_nodes : int;
    (* Per-link state is keyed by [link] over node indexes, so the send
       path looks it up without building a key; a symmetric (unordered)
       pair is keyed by its lower index first.  The send path skips the
       override, partition and drop tables while they are empty. *)
    latencies : float Links.t;
    directed_latencies : float Links.t;
    partitions : unit Links.t;
    directed_sent : int ref Links.t;
    drops : int list ref Links.t;
    mutable jitter : (src:string -> dst:string -> float) option;
    mutable mutator : (src:string -> dst:string -> P.t list -> P.t list) option;
    mutable total_flows : int;
    (* In-flight payload bundles live in a freelist-chained slot arena so a
       delivery schedules as a flat event (kind + int slots), not a closure.
       [inflight_next.(s)] chains free slots; [-1] terminates. *)
    deliver : Simkernel.Engine.kind;
    mutable inflight : P.t list array;
    mutable inflight_next : int array;
    mutable inflight_free : int;
  }

  let no_node =
    {
      name = "";
      handler = (fun ~src:_ _ -> ());
      up = false;
      sent = 0;
      received = 0;
    }

  (* Fired by the engine for every delivery: a0 = payload slot, a1 = dst
     index, a2 = src index.  The slot is released before the handler runs so
     re-entrant sends can reuse it. *)
  let deliver_flat t slot dst src =
    let payloads = t.inflight.(slot) in
    t.inflight.(slot) <- [];
    t.inflight_next.(slot) <- t.inflight_free;
    t.inflight_free <- slot;
    let d = t.node_arr.(dst) in
    if d.up then begin
      d.received <- d.received + 1;
      d.handler ~src:t.node_arr.(src).name payloads
    end

  let create engine ?(default_latency = 1.0) () =
    let cap = 64 in
    let tref = ref None in
    let deliver =
      Simkernel.Engine.register_kind engine ~name:"net.deliver"
        (fun a0 a1 a2 _ ->
          match !tref with Some t -> deliver_flat t a0 a1 a2 | None -> ())
    in
    let t =
      {
        engine;
        default_latency;
        nodes = Names.create 16;
        node_arr = Array.make 8 no_node;
        n_nodes = 0;
        latencies = Links.create 16;
        directed_latencies = Links.create 4;
        partitions = Links.create 4;
        directed_sent = Links.create 16;
        drops = Links.create 4;
        jitter = None;
        mutator = None;
        total_flows = 0;
        deliver;
        inflight = Array.make cap [];
        inflight_next = Array.init cap (fun i -> if i = cap - 1 then -1 else i + 1);
        inflight_free = 0;
      }
    in
    tref := Some t;
    t

  let engine t = t.engine

  let inflight_alloc t payloads =
    if t.inflight_free = -1 then begin
      let cap = Array.length t.inflight in
      let cap' = 2 * cap in
      let inflight = Array.make cap' [] in
      Array.blit t.inflight 0 inflight 0 cap;
      let next = Array.init cap' (fun i -> if i = cap' - 1 then -1 else i + 1) in
      Array.blit t.inflight_next 0 next 0 cap;
      t.inflight <- inflight;
      t.inflight_next <- next;
      t.inflight_free <- cap
    end;
    let s = t.inflight_free in
    t.inflight_free <- t.inflight_next.(s);
    t.inflight.(s) <- payloads;
    s

  let node_index t name =
    match Names.find t.nodes name with
    | i -> i
    | exception Not_found ->
        invalid_arg (Printf.sprintf "netsim: unknown node %S" name)

  (* Key of the directed link [si -> di]; [add_node] keeps indexes below
     2^20, so distinct links never collide. *)
  let max_nodes = 1 lsl 20
  let link si di = (si lsl 20) lor di

  let pair_link si di = if si <= di then link si di else link di si

  let node_state t name = t.node_arr.(node_index t name)

  let add_node t name handler =
    if Names.mem t.nodes name then
      invalid_arg (Printf.sprintf "netsim: duplicate node %S" name);
    if t.n_nodes = max_nodes then invalid_arg "netsim: too many nodes";
    if t.n_nodes = Array.length t.node_arr then begin
      let bigger = Array.make (2 * t.n_nodes) no_node in
      Array.blit t.node_arr 0 bigger 0 t.n_nodes;
      t.node_arr <- bigger
    end;
    t.node_arr.(t.n_nodes) <- { name; handler; up = true; sent = 0; received = 0 };
    Names.replace t.nodes name t.n_nodes;
    t.n_nodes <- t.n_nodes + 1

  let set_handler t name handler = (node_state t name).handler <- handler

  let set_latency t a b l =
    Links.replace t.latencies (pair_link (node_index t a) (node_index t b)) l

  let set_latency_directed t ~src ~dst l =
    Links.replace t.directed_latencies
      (link (node_index t src) (node_index t dst))
      l

  (* [tbl]'s entry for [link], else [default]; an empty table (no override
     was ever set) answers without hashing *)
  let override tbl link default =
    if Links.length tbl = 0 then default
    else match Links.find tbl link with l -> l | exception Not_found -> default

  let link_latency t si di =
    override t.directed_latencies (link si di)
      (override t.latencies (pair_link si di) t.default_latency)

  (* An unregistered name has no override: overrides need both ends
     registered. *)
  let latency t a b =
    match (Names.find_opt t.nodes a, Names.find_opt t.nodes b) with
    | Some si, Some di -> link_latency t si di
    | _ -> t.default_latency

  let set_jitter t f = t.jitter <- f
  let set_mutator t f = t.mutator <- f

  let partition t a b =
    Links.replace t.partitions (pair_link (node_index t a) (node_index t b)) ()

  let heal t a b =
    Links.remove t.partitions (pair_link (node_index t a) (node_index t b))

  let cut t si di =
    Links.length t.partitions > 0 && Links.mem t.partitions (pair_link si di)

  let partitioned t a b =
    match (Names.find_opt t.nodes a, Names.find_opt t.nodes b) with
    | Some si, Some di -> cut t si di
    | _ -> false

  let cell tbl key init =
    match Links.find tbl key with
    | r -> r
    | exception Not_found ->
        let r = ref init in
        Links.replace tbl key r;
        r

  let drop_nth t ~src ~dst ~nth =
    if nth < 1 then invalid_arg "netsim: drop_nth expects nth >= 1";
    let l = link (node_index t src) (node_index t dst) in
    let sent = !(cell t.directed_sent l 0) in
    let drops = cell t.drops l [] in
    drops := (sent + nth) :: !drops

  let crash_node t name = (node_state t name).up <- false
  let restart_node t name = (node_state t name).up <- true
  let is_up t name = (node_state t name).up

  let send t ~src ~dst payloads =
    let si = node_index t src in
    let di = node_index t dst in
    let s = t.node_arr.(si) in
    if (not s.up) || cut t si di then false
    else begin
      (* The message left the source: it is a flow whether or not it arrives. *)
      t.total_flows <- t.total_flows + 1;
      s.sent <- s.sent + 1;
      let ln = link si di in
      let seq = cell t.directed_sent ln 0 in
      incr seq;
      let lost =
        Links.length t.drops > 0
        &&
        match Links.find t.drops ln with
        | drops when List.mem !seq !drops ->
            drops := List.filter (fun n -> n <> !seq) !drops;
            true
        | _ | (exception Not_found) -> false
      in
      if not lost then begin
        (* adversarial relay: a mutator may rewrite the payload bundle in
           flight (equivocation, vote flipping).  The sender's trace already
           recorded what it believes it sent. *)
        let payloads =
          match t.mutator with
          | None -> payloads
          | Some f -> f ~src ~dst payloads
        in
        let l =
          link_latency t si di
          +.
          match t.jitter with
          | None -> 0.0
          | Some f -> Float.max 0.0 (f ~src ~dst)
        in
        let slot = inflight_alloc t payloads in
        ignore
          (Simkernel.Engine.schedule_flat t.engine ~delay:l ~kind:t.deliver
             ~a0:slot ~a1:di ~a2:si)
      end;
      true
    end

  (* A fabricated message: it never left [src] (no sent counter, no flow,
     no drop bookkeeping) but arrives at [dst] claiming to be from [src]
     after the link's base latency.  Partitions do not stop it - the
     adversary is on the wire, not at the (possibly partitioned) source. *)
  let inject t ~src ~dst payloads =
    let di = node_index t dst in
    let l = latency t src dst in
    match Names.find_opt t.nodes src with
    | Some si ->
        let slot = inflight_alloc t payloads in
        ignore
          (Simkernel.Engine.schedule_flat t.engine ~delay:l ~kind:t.deliver
             ~a0:slot ~a1:di ~a2:si)
    | None ->
        (* a forged sender need not be a registered node; the claimed name
           travels in a closure instead of the flat src index *)
        let d = t.node_arr.(di) in
        ignore
          (Simkernel.Engine.schedule t.engine ~delay:l (fun () ->
               if d.up then begin
                 d.received <- d.received + 1;
                 d.handler ~src payloads
               end))

  let flows t = t.total_flows
  let sent_by t name = (node_state t name).sent
  let received_by t name = (node_state t name).received

  let reset_stats t =
    t.total_flows <- 0;
    for i = 0 to t.n_nodes - 1 do
      let s = t.node_arr.(i) in
      s.sent <- 0;
      s.received <- 0
    done
end
