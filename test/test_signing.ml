(* BFT signatures hash their fields one piece at a time instead of
   formatting the signed text first.  The formulas they replaced are kept
   here as the oracle: every digest, vote signature, endorsement
   signature, vote-set digest and certificate payload must stay
   byte-identical to what [Printf] built, for any replica number
   (negative ones from a hand-made WAL payload included), transaction
   name, vote, outcome and vote set. *)

open Tpc.Types
module Msg = Tpc.Msg
module Q = QCheck

let qtest = QCheck_alcotest.to_alcotest

(* --- the formulas as they were ----------------------------------------- *)

let old_digest s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := ((!h lxor Char.code c) * 0x01000193) land 0x3FFFFFFF)
    s;
  Printf.sprintf "%08x" !h

let old_sign ~replica ~txn ~outcome ~votes =
  old_digest
    (Printf.sprintf "endorse|%d|%s|%s|%s" replica txn
       (outcome_to_string outcome) votes)

let old_vote_tag ~src ~txn vote =
  old_digest (Printf.sprintf "vote|%s|%s|%s" src txn (vote_to_string vote))

let old_votes_digest votes =
  old_digest
    (String.concat ";"
       (List.map
          (fun (n, v) ->
            n ^ "=" ^ match v with Some v -> vote_to_string v | None -> "-")
          (List.sort compare votes)))

let old_cert_to_string cert =
  String.concat ";"
    (List.map
       (fun (e : Msg.endorsement) ->
         Printf.sprintf "%d,%s,%s,%s" e.e_replica
           (outcome_to_string e.e_outcome)
           e.e_votes e.e_sig)
       cert.Msg.c_endorsements)

(* --- generators --------------------------------------------------------- *)

let votes =
  [
    Vote_yes { reliable = false; leave_out_ok = false };
    Vote_yes { reliable = true; leave_out_ok = false };
    Vote_yes { reliable = false; leave_out_ok = true };
    Vote_yes { reliable = true; leave_out_ok = true };
    Vote_read_only;
    Vote_no;
  ]

let gen_replica =
  Q.Gen.(
    frequency
      [
        (4, int_range (-12) 12);
        (2, int);
        (1, oneofl [ min_int; max_int; min_int + 1; -10; 10; -1; 0 ]);
      ])

(* transaction and member names: mixer-style names, names carrying the
   separators the signed text uses, and arbitrary bytes *)
let gen_name =
  Q.Gen.(
    frequency
      [
        (3, map (fun i -> "mx-" ^ string_of_int i) (int_bound 100_000));
        (2, string_size ~gen:(oneofl [ 'a'; '|'; ','; ';'; '='; '-'; '0' ]) (int_bound 6));
        (1, string_size ~gen:char (int_bound 12));
      ])

let gen_vote = Q.Gen.oneofl votes
let gen_outcome = Q.Gen.oneofl [ Committed; Aborted ]

(* member names drawn from a small pool, so sets repeat names too *)
let gen_vote_set =
  Q.Gen.(
    list_size (int_bound 9)
      (pair
         (oneof [ oneofl [ "coord"; "sub0"; "sub1"; "sub2" ]; gen_name ])
         (opt gen_vote)))

type case = {
  replica : int;
  txn : string;
  src : string;
  vote : vote;
  outcome : outcome;
  vote_set : (string * vote option) list;
  sig_text : string;
}

let gen_case =
  Q.Gen.(
    map
      (fun ((replica, txn, src), (vote, outcome, vote_set), sig_text) ->
        { replica; txn; src; vote; outcome; vote_set; sig_text })
      (triple
         (triple gen_replica gen_name gen_name)
         (triple gen_vote gen_outcome gen_vote_set)
         gen_name))

let print_case c =
  Printf.sprintf "replica=%d txn=%S src=%S vote=%s outcome=%s set=[%s] sig=%S"
    c.replica c.txn c.src (vote_to_string c.vote) (outcome_to_string c.outcome)
    (String.concat "; "
       (List.map
          (fun (n, v) ->
            Printf.sprintf "%S=%s" n
              (match v with Some v -> vote_to_string v | None -> "-"))
          c.vote_set))
    c.sig_text

let agree what expected actual =
  if expected <> actual then
    Q.Test.fail_reportf "%s: %S, the Printf formula gives %S" what actual
      expected

let prop_signatures_match_printf =
  Q.Test.make ~count:2000 ~name:"signatures equal the Printf formulas"
    (Q.make ~print:print_case gen_case) (fun c ->
      agree "digest" (old_digest c.txn) (Msg.digest c.txn);
      agree "vote_tag"
        (old_vote_tag ~src:c.src ~txn:c.txn c.vote)
        (Msg.vote_tag ~src:c.src ~txn:c.txn c.vote);
      let votes = Msg.votes_digest c.vote_set in
      agree "votes_digest" (old_votes_digest c.vote_set) votes;
      let e =
        Msg.endorse ~replica:c.replica ~txn:c.txn ~outcome:c.outcome ~votes
      in
      agree "endorsement signature"
        (old_sign ~replica:c.replica ~txn:c.txn ~outcome:c.outcome ~votes)
        e.Msg.e_sig;
      (* a certificate mixing this endorsement with a hand-made one whose
         fields are arbitrary text *)
      let forged =
        {
          Msg.e_replica = -c.replica;
          e_outcome = c.outcome;
          e_votes = c.sig_text;
          e_sig = c.src;
        }
      in
      let cert = { Msg.c_endorsements = [ e; forged ] } in
      agree "cert_to_string" (old_cert_to_string cert) (Msg.cert_to_string cert);
      true)

(* A WAL payload written by hand can carry negative replica numbers; they
   print back, and sign, exactly as [%d] would. *)
let test_hand_made_payload () =
  let payload = "-3,commit,abc,00000000;-4611686018427387904,abort,x,y" in
  match Msg.cert_of_string payload with
  | None -> Alcotest.fail "hand-made payload failed to parse"
  | Some cert ->
      Alcotest.(check string) "prints back as %d would" (old_cert_to_string cert)
        (Msg.cert_to_string cert);
      Alcotest.(check string) "and as it was written" payload
        (Msg.cert_to_string cert);
      List.iter
        (fun (e : Msg.endorsement) ->
          Alcotest.(check string) "signature over a negative replica"
            (old_sign ~replica:e.e_replica ~txn:"mx-1" ~outcome:e.e_outcome
               ~votes:e.e_votes)
            (Msg.endorse ~replica:e.e_replica ~txn:"mx-1" ~outcome:e.e_outcome
               ~votes:e.e_votes)
              .Msg.e_sig)
        cert.Msg.c_endorsements;
      Alcotest.(check bool) "and never validates" false
        (Msg.certificate_valid ~f:1 ~txn:"mx-1" ~outcome:Committed cert)

let suite =
  [
    qtest prop_signatures_match_printf;
    Alcotest.test_case "hand-made payload with negative replicas" `Quick
      test_hand_made_payload;
  ]
