(** Named metrics registry: counters, gauges and streaming histograms.

    One registry travels with one simulation world; components record into
    it by name ("engine/events", "phase/voting", "mixer/commit_latency")
    and the driver snapshots it after the run.  All operations find-or-
    create, so recording a metric never needs prior declaration. *)

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let incr t ?(by = 1) name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counters name (ref by)

let set_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := v
  | None -> Hashtbl.replace t.gauges name (ref v)

let max_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> if v > !r then r := v
  | None -> Hashtbl.replace t.gauges name (ref v)

let histogram t ?buckets_per_decade name =
  match Hashtbl.find t.histograms name with
  | h -> h
  | exception Not_found ->
      let h = Histogram.create ?buckets_per_decade () in
      Hashtbl.replace t.histograms name h;
      h

let observe t ?buckets_per_decade name v =
  Histogram.record (histogram t ?buckets_per_decade name) v

let counter_value t name =
  Option.value ~default:0 (Option.map ( ! ) (Hashtbl.find_opt t.counters name))

let gauge_value t name = Option.map ( ! ) (Hashtbl.find_opt t.gauges name)
let find_histogram t name = Hashtbl.find_opt t.histograms name

let sorted_bindings tbl f =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl [])

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
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.histograms
