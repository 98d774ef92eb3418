(* Ordered one-shot fan-out; see parallel.mli for the contract.  Work
   items here are whole simulations (milliseconds to seconds each), so
   one atomic counter handing out indices is all the coordination the
   domains need, and joining them publishes their results. *)

let recommended_jobs () = Domain.recommended_domain_count ()

let map ~jobs f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec drain () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <-
        Some
          (try Ok (f items.(i))
           with e -> Error (e, Printexc.get_raw_backtrace ()));
      drain ()
    end
  in
  (* the calling domain is the last worker *)
  let spawned =
    List.init (max 0 (min jobs n - 1)) (fun _ -> Domain.spawn drain)
  in
  drain ();
  List.iter Domain.join spawned;
  (* fan-in: re-raise the lowest-index exception, else unwrap in order *)
  Array.iter
    (function
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | Some (Ok _) | None -> ())
    results;
  List.init n (fun i ->
      match results.(i) with
      | Some (Ok v) -> v
      | Some (Error _) | None -> assert false)
