(** Named metrics registry: counters, gauges and streaming histograms.

    One registry travels with one simulation world; components record into
    it by name ("engine/events", "phase/voting", "mixer/commit_latency")
    and the driver snapshots it after the run.  All operations find-or-
    create, so recording a metric never needs prior declaration. *)

module Names = Hashtbl.Make (String)

type t = {
  counters : int ref Names.t;
  gauges : float ref Names.t;
  histograms : Histogram.t Names.t;
}

let create () =
  {
    counters = Names.create 16;
    gauges = Names.create 16;
    histograms = Names.create 16;
  }

let incr t ?(by = 1) name =
  match Names.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Names.replace t.counters name (ref by)

let set_gauge t name v =
  match Names.find_opt t.gauges name with
  | Some r -> r := v
  | None -> Names.replace t.gauges name (ref v)

let max_gauge t name v =
  match Names.find_opt t.gauges name with
  | Some r -> if v > !r then r := v
  | None -> Names.replace t.gauges name (ref v)

let histogram t ?buckets_per_decade name =
  match Names.find t.histograms name with
  | h -> h
  | exception Not_found ->
      let h = Histogram.create ?buckets_per_decade () in
      Names.replace t.histograms name h;
      h

let observe t ?buckets_per_decade name v =
  Histogram.record (histogram t ?buckets_per_decade name) v

type handles = {
  names : string array;
  mutable reg : t option;
  resolved : Histogram.t option array;
}

let handles names =
  { names; reg = None; resolved = Array.make (Array.length names) None }

let attach h reg =
  h.reg <- Some reg;
  Array.fill h.resolved 0 (Array.length h.resolved) None

let observe_at h i v =
  match h.reg with
  | None -> ()
  | Some reg ->
      let x =
        match Array.unsafe_get h.resolved i with
        | Some x -> x
        | None ->
            let x = histogram reg h.names.(i) in
            h.resolved.(i) <- Some x;
            x
      in
      Histogram.record x v

let counter_value t name =
  Option.value ~default:0 (Option.map ( ! ) (Names.find_opt t.counters name))

let gauge_value t name = Option.map ( ! ) (Names.find_opt t.gauges name)
let find_histogram t name = Names.find_opt t.histograms name

let sorted_bindings tbl f =
  List.sort compare (Names.fold (fun k v acc -> (k, f v) :: acc) tbl [])

let counters t = sorted_bindings t.counters ( ! )
let gauges t = sorted_bindings t.gauges ( ! )
let histograms t = sorted_bindings t.histograms Fun.id

let merge ~into src =
  List.iter (fun (name, v) -> incr into ~by:v name) (counters src);
  List.iter (fun (name, v) -> max_gauge into name v) (gauges src);
  List.iter
    (fun (name, h) ->
      let dst = histogram into ~buckets_per_decade:(Histogram.resolution h) name in
      Histogram.merge ~into:dst h)
    (histograms src)

let clear t =
  Names.reset t.counters;
  Names.reset t.gauges;
  Names.reset t.histograms
