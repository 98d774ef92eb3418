(* BFT signatures hash their fields one piece at a time instead of
   formatting the signed text first.  The formulas they replaced are kept
   here as the oracle: every digest, vote signature, endorsement
   signature, vote-set digest and certificate payload must stay
   byte-identical to what [Printf] built, for any replica number
   (negative ones from a hand-made WAL payload included), transaction
   name, vote, outcome and vote set.  The list-building certificate check
   is kept too: the certificate check, a BFT member's vote-signature check
   and the certificate row it logs must answer as the oracle does on any
   certificate, however malformed. *)

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

let old_certificate_valid ~f ~txn ~outcome (cert : Msg.certificate) =
  let quorum = f + 1 in
  let votes_agree =
    match cert.c_endorsements with
    | [] -> false
    | e :: rest -> List.for_all (fun (e' : Msg.endorsement) -> e'.e_votes = e.e_votes) rest
  in
  let good =
    List.filter
      (fun (e : Msg.endorsement) ->
        e.e_replica >= 0
        && e.e_replica <= 2 * f
        && e.e_outcome = outcome
        && e.e_sig = old_sign ~replica:e.e_replica ~txn ~outcome ~votes:e.e_votes)
      cert.c_endorsements
  in
  let distinct =
    List.sort_uniq compare (List.map (fun (e : Msg.endorsement) -> e.e_replica) good)
  in
  votes_agree && List.length distinct >= quorum

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

(* --- certificates, checked and logged ----------------------------------- *)

let bft =
  match Tpc.Protocol.find "bft" with
  | Some p -> p
  | None -> failwith "the bft protocol is not registered"

let other = function Committed -> Aborted | Aborted -> Committed

(* a signature as the adversary or a damaged payload might carry it *)
let gen_sig ~w ~txn ~replica ~outcome ~votes =
  let good = old_sign ~replica ~txn ~outcome ~votes in
  Q.Gen.(
    frequency
      [
        (6 * w, return good);
        ( 2,
          let* i = int_bound 7 and* c = oneofl [ '0'; '7'; 'a'; 'f'; 'F'; 'g' ] in
          return (String.mapi (fun j d -> if j = i then c else d) good) );
        (1, map (fun n -> String.sub good 0 n) (int_bound 7));
        (1, return (good ^ "0"));
        (1, return (String.uppercase_ascii good));
        (1, return (old_sign ~replica ~txn:(txn ^ "x") ~outcome ~votes));
        (1, return (old_sign ~replica ~txn ~outcome:(other outcome) ~votes));
        (1, return (old_sign ~replica:(replica + 1) ~txn ~outcome ~votes));
        (1, gen_name);
      ])

(* one endorsement of a certificate for [txn]/[outcome] over [votes]: a
   good one, or one with a replica outside [0, 2f] (negative, past the
   ensemble or at the ints' ends), the other outcome, another vote set or
   a bad signature; each field is good with odds of about [w] to 1 *)
let gen_endorsement ~w ~f ~txn ~outcome ~votes =
  Q.Gen.(
    let* replica =
      frequency
        [
          (3 * w, int_range 0 (2 * f));
          (1, int_range (-3) (-1));
          (1, int_range ((2 * f) + 1) ((2 * f) + 3));
          (1, oneofl [ min_int; max_int ]);
        ]
    and* e_outcome = frequency [ (w, return outcome); (1, return (other outcome)) ]
    and* e_votes =
      frequency [ (2 * w, return votes); (1, gen_name); (1, return (votes ^ ";")) ]
    in
    let+ e_sig = gen_sig ~w ~txn ~replica ~outcome:e_outcome ~votes:e_votes in
    { Msg.e_replica = replica; e_outcome; e_votes; e_sig })

type cert_case = {
  f : int;
  txn : string;  (** the transaction the certificate is checked for *)
  outcome : outcome;  (** and the outcome *)
  cert : Msg.certificate;
}

(* certificates of 0-5 endorsements, from mostly good to mostly damaged *)
let gen_cert_case =
  Q.Gen.(
    let* w = oneofl [ 1; 4; 32 ]
    and* f = int_range 0 3
    and* txn = oneof [ oneofl [ "mx-1"; "txn-1" ]; gen_name ]
    and* outcome = gen_outcome
    and* votes = oneof [ map old_votes_digest gen_vote_set; gen_name ] in
    let* n = int_range 0 5 in
    let+ es = list_repeat n (gen_endorsement ~w ~f ~txn ~outcome ~votes)
    and+ checked = frequency [ (8, return outcome); (1, return (other outcome)) ] in
    { f; txn; outcome = checked; cert = { Msg.c_endorsements = es } })

let print_cert_case c =
  Printf.sprintf "f=%d txn=%S outcome=%s cert=%S" c.f c.txn
    (outcome_to_string c.outcome)
    (old_cert_to_string c.cert)

(* One member's evidence hooks, and the rows it appends through a
   capability record that keeps each one's kind and payload. *)
let member ~f =
  let ev = bft.Tpc.Protocol.p_evidence (default_config |> with_bft_f f) in
  let rows = ref [] in
  let ops =
    {
      Tpc.Protocol.op_append =
        (fun ~txn:_ kind b n -> rows := (kind, Bytes.sub_string b 0 n) :: !rows);
      op_note = ignore;
      op_votes = (fun ~txn:_ s -> Msg.clear_votes s);
      op_ended_row = (fun ~txn:_ _ _ -> None);
      op_charge = (fun ~flows:_ ~forces:_ _ -> ());
    }
  in
  (ev, ops, rows)

(* how often each answer came up, so a generator that drifted into
   producing only invalid certificates fails instead of passing vacuously *)
let seen_valid = ref 0
let seen_invalid = ref 0

let prop_certificates_match_oracle =
  Q.Test.make ~count:3000 ~name:"certificate checks and rows equal the oracle"
    (Q.make ~print:print_cert_case gen_cert_case) (fun c ->
      let expected = old_certificate_valid ~f:c.f ~txn:c.txn ~outcome:c.outcome c.cert in
      incr (if expected then seen_valid else seen_invalid);
      if Msg.certificate_valid ~f:c.f ~txn:c.txn ~outcome:c.outcome c.cert <> expected
      then Q.Test.fail_reportf "certificate_valid answers %b, the oracle %b"
          (not expected) expected;
      let ev, ops, rows = member ~f:c.f in
      let decision =
        Msg.Decision_msg { txn = c.txn; outcome = c.outcome; cert = Some c.cert }
      in
      let refused = ev.Tpc.Protocol.ev_check ~src:"coord" decision <> None in
      if refused = expected then
        Q.Test.fail_reportf "the member %s a certificate the oracle calls %s"
          (if refused then "refuses" else "admits")
          (if expected then "valid" else "invalid");
      (* a member logs the first certificate it admits for a transaction *)
      ev.Tpc.Protocol.ev_admitted ops decision;
      (match !rows with
      | [ (Wal.Log_record.Certificate, payload) ] ->
          agree "certificate row" (old_cert_to_string c.cert) payload
      | _ -> Q.Test.fail_report "the member did not log one certificate row");
      true)

let test_certificates_match_oracle () =
  seen_valid := 0;
  seen_invalid := 0;
  QCheck.Test.check_exn prop_certificates_match_oracle;
  if !seen_valid < 100 || !seen_invalid < 100 then
    Alcotest.failf "only %d valid and %d invalid certificates: vacuous check"
      !seen_valid !seen_invalid

(* The vote-signature check a BFT member runs on every delivered vote:
   refused exactly when the tag differs from the oracle's signature. *)
let prop_vote_tags_match_oracle =
  Q.Test.make ~count:2000 ~name:"vote signature check equals the oracle"
    (Q.make ~print:print_case gen_case) (fun c ->
      let ev, _, _ = member ~f:1 in
      let good = old_vote_tag ~src:c.src ~txn:c.txn c.vote in
      List.iter
        (fun tag ->
          let vote =
            Msg.Vote_msg
              { txn = c.txn; vote = c.vote; delegation = false; unsolicited = false;
                implied_ack = false; tag }
          in
          let refused = ev.Tpc.Protocol.ev_check ~src:c.src vote <> None in
          if refused = String.equal tag good then
            Q.Test.fail_reportf "tag %S %s, the oracle's is %S" tag
              (if refused then "refused" else "admitted")
              good)
        [
          good;
          c.sig_text;
          String.sub good 0 (c.replica land 7);
          String.uppercase_ascii good;
          String.mapi (fun i d -> if i = c.replica land 7 then 'g' else d) good;
          old_vote_tag ~src:c.txn ~txn:c.src c.vote;
        ];
      true)

(* --- the backing contract ------------------------------------------------ *)

(* The decision maker asks [ev_decide] when it decides and again when the
   wait it was answered ends.  With f = 1 the first ask starts the
   endorsement round, charging its flows, and appends nothing; the second
   appends the certificate, once, and lets the outcome be logged; a third
   starts no second round, charges nothing and appends nothing. *)
let test_backing_contract () =
  let cfg = default_config |> with_bft_f 1 in
  let ev, ops, rows = member ~f:1 in
  let charged = ref 0 in
  let ops =
    {
      ops with
      Tpc.Protocol.op_charge = (fun ~flows ~forces:_ _ -> charged := !charged + flows);
    }
  in
  let ask () = ev.Tpc.Protocol.ev_decide ops ~txn:"mx-1" Committed in
  Alcotest.(check (float 0.0)) "the first ask waits a round trip and a force"
    ((2.0 *. cfg.latency) +. cfg.io_latency) (ask ());
  Alcotest.(check int) "and appends nothing" 0 (List.length !rows);
  Alcotest.(check int) "the round's flows are charged" 4 !charged;
  Alcotest.(check bool) "the second ask lets the outcome be logged" true
    (ask () < 0.0);
  (match !rows with
  | [ (Wal.Log_record.Certificate, payload) ] -> (
      match Msg.cert_of_string payload with
      | Some cert ->
          Alcotest.(check bool) "and appends a valid certificate" true
            (Msg.certificate_valid ~f:1 ~txn:"mx-1" ~outcome:Committed cert)
      | None -> Alcotest.fail "the certificate row does not decode")
  | rows ->
      Alcotest.failf "the second ask appended %d rows, not one certificate"
        (List.length rows));
  Alcotest.(check bool) "a third ask lets it be logged too" true (ask () < 0.0);
  Alcotest.(check int) "and appends nothing more" 1 (List.length !rows);
  Alcotest.(check int) "nor charges a second round" 4 !charged

(* --- the checks build nothing ------------------------------------------- *)

(* A BFT member runs these on every delivered decision and vote, and the
   digest on every decision it takes.  On warmed values the checks
   allocate nothing, and a digest only its 8-character result. *)

let yes = Vote_yes { reliable = false; leave_out_ok = false }

let eight_members =
  ("coord", Some yes)
  :: List.init 7 (fun i ->
         (Printf.sprintf "sub%d" (7 - i), if i = 3 then Some Vote_read_only else Some yes))

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_certificate_checks_allocate_nothing () =
  let txn = "mx-17" in
  let votes = Msg.votes_digest eight_members in
  let cert =
    {
      Msg.c_endorsements =
        List.init 2 (fun replica -> Msg.endorse ~replica ~txn ~outcome:Committed ~votes);
    }
  in
  let ev, _, _ = member ~f:1 in
  let decision = Msg.Decision_msg { txn; outcome = Committed; cert = Some cert } in
  let valid = ref 0 in
  let words =
    minor_words_of (fun () ->
        for _ = 1 to 1000 do
          if Msg.certificate_valid ~f:1 ~txn ~outcome:Committed cert then incr valid;
          if ev.Tpc.Protocol.ev_check ~src:"coord" decision = None then incr valid
        done)
  in
  Alcotest.(check int) "every check admits the certificate" 2000 !valid;
  Alcotest.(check (float 0.0)) "words allocated by 1,000 checks of each kind" 0.0 words

let test_vote_tag_checks_allocate_nothing () =
  let txn = "mx-17" in
  let tag = Msg.vote_tag ~src:"sub3" ~txn yes in
  let ev, _, _ = member ~f:1 in
  let vote =
    Msg.Vote_msg
      { txn; vote = yes; delegation = false; unsolicited = false; implied_ack = false; tag }
  in
  let matched = ref 0 in
  let words =
    minor_words_of (fun () ->
        for _ = 1 to 1000 do
          if Msg.vote_tag_matches ~src:"sub3" ~txn yes tag then incr matched;
          if ev.Tpc.Protocol.ev_check ~src:"sub3" vote = None then incr matched
        done)
  in
  Alcotest.(check int) "every check admits the vote" 2000 !matched;
  Alcotest.(check (float 0.0)) "words allocated by 1,000 checks of each kind" 0.0 words

(* The participant fills a node's scratch member by member, so no pair or
   list is built; the test's own list only feeds it. *)
let test_votes_digest_allocates_its_result () =
  let scratch = Msg.vote_scratch () in
  let expected = old_votes_digest eight_members in
  let add (name, vote) = Msg.add_vote scratch name vote in
  let fill () =
    Msg.clear_votes scratch;
    List.iter add eight_members;
    Msg.scratch_digest scratch
  in
  Alcotest.(check string) "warm-up digest" expected (fill ());
  let last = ref "" in
  let words =
    minor_words_of (fun () ->
        for _ = 1 to 1000 do
          last := fill ()
        done)
  in
  Alcotest.(check string) "digest" expected !last;
  Alcotest.(check (float 0.0))
    "words allocated by 1,000 fills and digests beyond their results" 0.0
    (words -. (1000.0 *. float_of_int (Obj.reachable_words (Obj.repr !last))))

let suite =
  [
    qtest prop_signatures_match_printf;
    Alcotest.test_case "hand-made payload with negative replicas" `Quick
      test_hand_made_payload;
    Alcotest.test_case "certificate checks and rows equal the oracle" `Quick
      test_certificates_match_oracle;
    qtest prop_vote_tags_match_oracle;
    Alcotest.test_case "a decision is backed once, on the second ask" `Quick
      test_backing_contract;
    Alcotest.test_case "certificate checks allocate nothing" `Quick
      test_certificate_checks_allocate_nothing;
    Alcotest.test_case "vote signature checks allocate nothing" `Quick
      test_vote_tag_checks_allocate_nothing;
    Alcotest.test_case "vote-set digests allocate only their results" `Quick
      test_votes_digest_allocates_its_result;
  ]
