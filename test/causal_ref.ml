(* The string-keyed causal recorder that Obs.Causal's column store
   replaced, kept as the reference for test_causal's oracle property.
   Node, hop and seg are Obs.Causal's own types, so the two recorders'
   answers compare with (=).  Only the recording entry points and the
   three queries are kept. *)

module C = Obs.Causal

type t = {
  mutable next_id : int;
  by_id : (int, C.node) Hashtbl.t;
  (* last node of each (txn, who) process chain *)
  chains : (string * string, int) Hashtbl.t;
  (* unmatched sends per (txn, src, dst, label), newest first *)
  inflight : (string * string * string * string, int list) Hashtbl.t;
  (* newest node per txn, and the explicitly-marked terminal *)
  latest : (string, int) Hashtbl.t;
  terminals : (string, int) Hashtbl.t;
}

let create () =
  {
    next_id = 0;
    by_id = Hashtbl.create 64;
    chains = Hashtbl.create 16;
    inflight = Hashtbl.create 16;
    latest = Hashtbl.create 16;
    terminals = Hashtbl.create 16;
  }

let add t ~txn ~who ~time ~seg ~label ~causes =
  let id = t.next_id in
  t.next_id <- id + 1;
  let n =
    {
      C.cn_id = id;
      cn_txn = txn;
      cn_who = who;
      cn_time = time;
      cn_seg = seg;
      cn_label = label;
      cn_causes = causes;
    }
  in
  Hashtbl.replace t.by_id id n;
  Hashtbl.replace t.chains (txn, who) id;
  Hashtbl.replace t.latest txn id;
  id

let chain_last t ~txn ~who = Hashtbl.find_opt t.chains (txn, who)

let record ?(terminal = false) ?link_from t ~txn ~who ~time ~seg label =
  let causes =
    (match chain_last t ~txn ~who with Some i -> [ i ] | None -> [])
    @
    match link_from with
    | Some from when from <> who -> (
        match chain_last t ~txn ~who:from with Some i -> [ i ] | None -> [])
    | _ -> []
  in
  let id = add t ~txn ~who ~time ~seg ~label ~causes in
  if terminal then Hashtbl.replace t.terminals txn id

let send t ~txn ~src ~dst ~time ~label =
  let causes =
    match chain_last t ~txn ~who:src with Some i -> [ i ] | None -> []
  in
  let id =
    add t ~txn ~who:src ~time ~seg:C.Compute
      ~label:(Printf.sprintf "send %s -> %s" label dst)
      ~causes
  in
  let key = (txn, src, dst, label) in
  let q = Option.value ~default:[] (Hashtbl.find_opt t.inflight key) in
  Hashtbl.replace t.inflight key (id :: q)

let take_matching_send t ~txn ~src ~dst ~time ~label =
  let key = (txn, src, dst, label) in
  match Hashtbl.find_opt t.inflight key with
  | None -> None
  | Some q ->
      let rec pick acc = function
        | [] -> (None, List.rev acc)
        | id :: rest ->
            let n = Hashtbl.find t.by_id id in
            if n.C.cn_time <= time then (Some id, List.rev_append acc rest)
            else pick (id :: acc) rest
      in
      let found, rest = pick [] q in
      (match rest with
      | [] -> Hashtbl.remove t.inflight key
      | _ -> Hashtbl.replace t.inflight key rest);
      found

let deliver t ~txn ~src ~dst ~time ~label =
  let sent = take_matching_send t ~txn ~src ~dst ~time ~label in
  let causes =
    (match chain_last t ~txn ~who:dst with Some i -> [ i ] | None -> [])
    @ (match sent with Some i -> [ i ] | None -> [])
  in
  ignore
    (add t ~txn ~who:dst ~time ~seg:C.Msg_wait
       ~label:(Printf.sprintf "deliver %s from %s" label src)
       ~causes)

let node_count t = t.next_id

let txn_nodes t ~txn =
  let nodes =
    Hashtbl.fold
      (fun _ n acc -> if n.C.cn_txn = txn then n :: acc else acc)
      t.by_id []
  in
  List.sort
    (fun a b ->
      match compare a.C.cn_time b.C.cn_time with
      | 0 -> compare a.C.cn_id b.C.cn_id
      | c -> c)
    nodes

let binding_cause t n =
  List.fold_left
    (fun acc id ->
      let c = Hashtbl.find t.by_id id in
      match acc with
      | None -> Some c
      | Some best ->
          if
            c.C.cn_time > best.C.cn_time
            || (c.C.cn_time = best.C.cn_time && c.C.cn_id > best.C.cn_id)
          then Some c
          else Some best)
    None n.C.cn_causes

let terminal_node t ~txn =
  match Hashtbl.find_opt t.terminals txn with
  | Some id -> Some (Hashtbl.find t.by_id id)
  | None -> (
      match Hashtbl.find_opt t.latest txn with
      | Some id -> Some (Hashtbl.find t.by_id id)
      | None -> None)

let critical_path t ~txn =
  match terminal_node t ~txn with
  | None -> None
  | Some last ->
      let rec walk acc n =
        match binding_cause t n with
        | None -> { C.h_node = n; h_dt = 0.0 } :: acc
        | Some c ->
            walk ({ C.h_node = n; h_dt = n.C.cn_time -. c.C.cn_time } :: acc) c
      in
      Some (walk [] last)
