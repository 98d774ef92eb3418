(** Named registry of streaming histograms.

    One registry travels with one simulation world; components record into
    it by name ("phase/voting", "mixer/commit_latency") and the driver
    snapshots it after the run.  Lookups find-or-create, so recording
    never needs prior declaration. *)

module Names = Hashtbl.Make (String)

type t = { histograms : Histogram.t Names.t }

let create () = { histograms = Names.create 16 }

let histogram t ?buckets_per_decade name =
  match Names.find t.histograms name with
  | h -> h
  | exception Not_found ->
      let h = Histogram.create ?buckets_per_decade () in
      Names.replace t.histograms name h;
      h

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

let find_histogram t name = Names.find_opt t.histograms name

let histograms t =
  List.sort compare (Names.fold (fun k h acc -> (k, h) :: acc) t.histograms [])

let merge ~into src =
  List.iter
    (fun (name, h) ->
      let dst = histogram into ~buckets_per_decade:(Histogram.resolution h) name in
      Histogram.merge ~into:dst h)
    (histograms src)
