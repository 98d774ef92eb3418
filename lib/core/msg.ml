(** Wire protocol of the commit engine.

    One network message (one {e flow} in the paper's accounting) carries a
    list of payloads: piggybacking is how the implied-acknowledgment,
    long-locks and chained-transaction optimizations avoid flows. *)

type damage_report = {
  d_node : string;            (** where the heuristic decision was taken *)
  d_action : Types.outcome;   (** what it unilaterally did *)
  d_outcome : Types.outcome;  (** what the transaction actually decided *)
}

(* --- BFT decision certificates ---------------------------------------

   The BFT commit variant replicates the coordinator over 2f+1 replicas
   and only treats a decision as valid when it carries a certificate of
   at least f+1 matching endorsements.  Signatures are simulated with a
   deterministic digest: an honest node can recompute and check any
   signature, while the adversary can only produce signatures for the
   replicas it has corrupted - exactly the asymmetry real signatures
   give, without any crypto dependency. *)

(* FNV-1a over the signed text, truncated to 30 bits so the arithmetic is
   portable across int widths; collisions are irrelevant here because the
   adversary model is "knows the key or not", not "searches for
   collisions".  The hash is fed one piece at a time: the digest of the
   pieces is the digest of their concatenation, so a signature hashes its
   fields in place, and a check compares the hash with the signature's
   hex digits in place too. *)
let fnv_basis = 0x811c9dc5
let fnv_char h c = ((h lxor Char.code c) * 0x01000193) land 0x3FFFFFFF

let fnv_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := fnv_char !h (String.unsafe_get s i)
  done;
  !h

(* the digit of [-n] mod 10, for [n <= 0] *)
let neg_digit n = Char.unsafe_chr (Char.code '0' - (n mod 10))

(* the digits of [-n] for [n <= 0], most significant first; counting
   down from zero reaches [min_int] without overflow *)
let rec fnv_neg_digits h n =
  let h = if n <= -10 then fnv_neg_digits h (n / 10) else h in
  fnv_char h (neg_digit n)

(* [n] as [string_of_int] (and so [%d]) prints it *)
let fnv_int h n =
  if n < 0 then fnv_neg_digits (fnv_char h '-') n else fnv_neg_digits h (-n)

(* the [i]th of the eight lowercase hex digits [%08x] prints for [h] *)
let hex_digit h i = "0123456789abcdef".[(h lsr (28 - (4 * i))) land 15]

let hex8 h =
  let b = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.unsafe_set b i (hex_digit h i)
  done;
  Bytes.unsafe_to_string b

(* whether [s] from its [i]th character on is [hex8 h]'s *)
let rec hex8_from h s i =
  i = 8 || (Char.equal (String.unsafe_get s i) (hex_digit h i) && hex8_from h s (i + 1))

(* [String.equal s (hex8 h)], building nothing *)
let is_hex8 h s = String.length s = 8 && hex8_from h s 0

let digest s = hex8 (fnv_string fnv_basis s)

type endorsement = {
  e_replica : int;  (** replica index in [0, 2f] *)
  e_outcome : Types.outcome;
  e_votes : string;  (** digest of the vote set the replica endorsed *)
  e_sig : string;  (** simulated signature binding all of the above *)
}

type certificate = { c_endorsements : endorsement list }

(* the hash of "endorse|<replica>|<txn>|<outcome>|<votes>" *)
let endorsement_hash ~replica ~txn ~outcome ~votes =
  let h = fnv_int (fnv_string fnv_basis "endorse|") replica in
  let h = fnv_string (fnv_char h '|') txn in
  let h = fnv_string (fnv_char h '|') (Types.outcome_to_string outcome) in
  fnv_string (fnv_char h '|') votes

let endorse ~replica ~txn ~outcome ~votes =
  {
    e_replica = replica;
    e_outcome = outcome;
    e_votes = votes;
    e_sig = hex8 (endorsement_hash ~replica ~txn ~outcome ~votes);
  }

(* [e] counts toward a certificate of [outcome] for [txn] from 2f+1
   replicas: it is one of theirs, names [outcome] and its signature
   verifies *)
let counts ~f ~txn ~outcome e =
  e.e_replica >= 0 && e.e_replica <= 2 * f && e.e_outcome = outcome
  && is_hex8
       (endorsement_hash ~replica:e.e_replica ~txn ~outcome ~votes:e.e_votes)
       e.e_sig

(* whether an endorsement of [es] by [replica] counts *)
let rec counted ~f ~txn ~outcome replica = function
  | [] -> false
  | e :: rest ->
      (e.e_replica = replica && counts ~f ~txn ~outcome e)
      || counted ~f ~txn ~outcome replica rest

(* The one pass: every endorsement carries [votes], and [n] replicas have
   counted so far, each at the last of its endorsements that counts. *)
let rec quorum ~f ~txn ~outcome votes n = function
  | [] -> n > f
  | e :: rest ->
      let last =
        counts ~f ~txn ~outcome e && not (counted ~f ~txn ~outcome e.e_replica rest)
      in
      String.equal e.e_votes votes
      && quorum ~f ~txn ~outcome votes (if last then n + 1 else n) rest

let certificate_valid ~f ~txn ~outcome cert =
  match cert.c_endorsements with
  | [] -> false
  | e :: _ as es -> quorum ~f ~txn ~outcome e.e_votes 0 es

(* A subordinate's vote is signed too, so a BFT coordinator can detect a
   vote flipped in flight (the tag no longer matches the carried vote):
   the hash of "vote|<src>|<txn>|<vote>". *)
let vote_hash ~src ~txn vote =
  let h = fnv_string (fnv_string fnv_basis "vote|") src in
  let h = fnv_string (fnv_char h '|') txn in
  fnv_string (fnv_char h '|') (Types.vote_to_string vote)

let vote_tag ~src ~txn vote = hex8 (vote_hash ~src ~txn vote)
let vote_tag_matches ~src ~txn vote tag = is_hex8 (vote_hash ~src ~txn vote) tag

(* Canonical digest of a vote set: the members sorted as [compare] sorts
   (name, vote) pairs, each as "<name>=<vote>" ("-" for a missing vote),
   joined by ';'.  The members are sorted by insertion into two reused
   arrays, names and votes side by side: for a commit tree's few members
   that beats [List.sort], and neither adding a member nor hashing the set
   builds anything but the digest. *)
type vote_scratch = {
  mutable names : string array;
  mutable votes : Types.vote option array;
  mutable size : int;
}

let vote_scratch () = { names = [||]; votes = [||]; size = 0 }
let clear_votes s = s.size <- 0

(* [compare] on (name, vote) pairs; names, distinct but in a hand-made
   set, compare as strings *)
let member_after s i name vote =
  match String.compare s.names.(i) name with
  | 0 -> compare s.votes.(i) vote > 0
  | c -> c > 0

(* insert the member into the sorted [0 .. i - 1] *)
let rec insert s i name vote =
  if i > 0 && member_after s (i - 1) name vote then begin
    s.names.(i) <- s.names.(i - 1);
    s.votes.(i) <- s.votes.(i - 1);
    insert s (i - 1) name vote
  end
  else begin
    s.names.(i) <- name;
    s.votes.(i) <- vote
  end

let add_vote s name vote =
  let n = Array.length s.names in
  if s.size = n then begin
    let m = max 8 (2 * n) in
    let names = Array.make m "" and votes = Array.make m None in
    Array.blit s.names 0 names 0 n;
    Array.blit s.votes 0 votes 0 n;
    s.names <- names;
    s.votes <- votes
  end;
  insert s s.size name vote;
  s.size <- s.size + 1

let member_hash h name vote =
  let h = fnv_char (fnv_string h name) '=' in
  match vote with
  | Some v -> fnv_string h (Types.vote_to_string v)
  | None -> fnv_char h '-'

let scratch_digest s =
  let h = ref fnv_basis in
  for i = 0 to s.size - 1 do
    h := member_hash (if i = 0 then !h else fnv_char !h ';') s.names.(i) s.votes.(i)
  done;
  hex8 !h

let votes_digest votes =
  let s = vote_scratch () in
  List.iter (fun (name, vote) -> add_vote s name vote) votes;
  scratch_digest s

(* WAL payload encoding: one endorsement per ';'-separated group, fields
   ','-separated, the replica as [string_of_int] prints it.  Round-trips
   exactly; [cert_of_string] returns [None] on any malformed input (a
   restarting node treats that as no certificate and re-validation
   fails).  Each [put_*] writes at [pos] and answers the position after;
   into empty bytes it writes nothing, so one writer both measures and
   writes an encoding. *)
let put_char b pos c =
  if Bytes.length b > 0 then Bytes.set b pos c;
  pos + 1

let put_string b pos s =
  if Bytes.length b > 0 then Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

(* the digits of [-n], for [n <= 0] *)
let rec put_neg_digits b pos n =
  put_char b (if n <= -10 then put_neg_digits b pos (n / 10) else pos) (neg_digit n)

let rec put_endorsements b pos = function
  | [] -> pos
  | e :: rest ->
      let pos = if pos > 0 then put_char b pos ';' else pos in
      let pos =
        if e.e_replica < 0 then put_neg_digits b (put_char b pos '-') e.e_replica
        else put_neg_digits b pos (-e.e_replica)
      in
      let pos = put_string b (put_char b pos ',') (Types.outcome_to_string e.e_outcome) in
      let pos = put_string b (put_char b pos ',') e.e_votes in
      put_endorsements b (put_string b (put_char b pos ',') e.e_sig) rest

let cert_size cert = put_endorsements Bytes.empty 0 cert.c_endorsements
let write_cert cert b = ignore (put_endorsements b 0 cert.c_endorsements)

let cert_to_string cert =
  let b = Bytes.create (cert_size cert) in
  write_cert cert b;
  Bytes.unsafe_to_string b

let cert_of_string s =
  if s = "" then None
  else
    let parse_one part =
      match String.split_on_char ',' part with
      | [ r; o; votes; sg ] -> (
          match (int_of_string_opt r, o) with
          | Some r, "commit" ->
              Some
                { e_replica = r; e_outcome = Types.Committed; e_votes = votes;
                  e_sig = sg }
          | Some r, "abort" ->
              Some
                { e_replica = r; e_outcome = Types.Aborted; e_votes = votes;
                  e_sig = sg }
          | _ -> None)
      | _ -> None
    in
    let parts = String.split_on_char ';' s in
    let es = List.filter_map parse_one parts in
    if List.length es = List.length parts then Some { c_endorsements = es }
    else None

type payload =
  | Prepare of {
      txn : string;
      long_locks : bool;  (** coordinator requests deferred acknowledgment *)
      upward : bool;  (** to the sender's static parent, which it engaged *)
    }
  | Vote_msg of {
      txn : string;
      vote : Types.vote;
      delegation : bool;
          (** true on the coordinator's own YES sent to a last agent: the
              receiver now owns the commit decision *)
      unsolicited : bool;
      implied_ack : bool;
          (** the voter is a reliable resource whose acknowledgment will be
              implied rather than sent (Vote Reliable, Figure 8) *)
      tag : string;
          (** simulated signature over (voter, txn, vote); [""] under the
              non-BFT protocols, which never check it *)
    }
  | Decision_msg of {
      txn : string;
      outcome : Types.outcome;
      cert : certificate option;
          (** BFT decision certificate; [None] under the paper's
              protocols, whose trust model has no signatures *)
    }
  | Ack_msg of {
      txn : string;
      damage : damage_report list;
      pending : bool;  (** wait-for-outcome: subtree resolution in progress *)
    }
  | Data of { txn : string; info : string }
      (** application data; begins work at the receiver and serves as the
          implied acknowledgment for any outcome the receiver was awaiting *)
  | Inquiry of { txn : string }
      (** PA subordinate-initiated recovery: "what happened to [txn]?" *)
  | Inquiry_reply of {
      txn : string;
      outcome : Types.outcome option;
          (** [None] = no information (PA: presume abort) *)
      cert : certificate option;
          (** certificate backing a [Some] outcome under BFT *)
    }

let payload_txn = function
  | Prepare { txn; _ }
  | Vote_msg { txn; _ }
  | Decision_msg { txn; _ }
  | Ack_msg { txn; _ }
  | Data { txn; _ }
  | Inquiry { txn }
  | Inquiry_reply { txn; _ } ->
      txn

let payload_label = function
  | Prepare { long_locks; _ } ->
      if long_locks then "Prepare(long-locks)" else "Prepare"
  | Vote_msg { vote; delegation; unsolicited; implied_ack; _ } ->
      let base = "Vote " ^ Types.vote_to_string vote in
      let base = if delegation then base ^ " (you decide)" else base in
      let base = if unsolicited then base ^ " (unsolicited)" else base in
      if implied_ack then base ^ " (ack implied)" else base
  | Decision_msg { outcome = Types.Committed; _ } -> "Commit"
  | Decision_msg { outcome = Types.Aborted; _ } -> "Abort"
    (* note: certified and plain decisions share a label on purpose - the
       sequence diagrams and flow accounting predate certificates and must
       not change shape under the legacy protocols *)
  | Ack_msg { damage = []; pending = false; _ } -> "Ack"
  | Ack_msg { damage = []; pending = true; _ } -> "Ack(pending)"
  | Ack_msg { damage; pending; _ } ->
      Printf.sprintf "Ack(%d damaged%s)" (List.length damage)
        (if pending then ",pending" else "")
  | Data { info; _ } -> if info = "" then "Data" else "Data:" ^ info
  | Inquiry _ -> "Inquiry"
  | Inquiry_reply { outcome = None; _ } -> "NoInformation"
  | Inquiry_reply { outcome = Some o; _ } ->
      "Outcome " ^ Types.outcome_to_string o

let bundle_label = function
  | [ p ] -> payload_label p
  | payloads -> String.concat " + " (List.map payload_label payloads)

(* One code per [payload_label] text, 1..127, or -1 for a label carrying
   free text (a damage count, data info). *)
let payload_code = function
  | Prepare { long_locks; _ } -> if long_locks then 2 else 1
  | Vote_msg { vote; delegation; unsolicited; implied_ack; _ } ->
      let v =
        match vote with
        | Types.Vote_yes { reliable = false; leave_out_ok = false } -> 0
        | Vote_yes { reliable = true; leave_out_ok = false } -> 1
        | Vote_yes { reliable = false; leave_out_ok = true } -> 2
        | Vote_yes { reliable = true; leave_out_ok = true } -> 3
        | Vote_read_only -> 4
        | Vote_no -> 5
      in
      3 + (8 * v)
      + (if delegation then 1 else 0)
      + (if unsolicited then 2 else 0)
      + if implied_ack then 4 else 0
  | Decision_msg { outcome = Types.Committed; _ } -> 51
  | Decision_msg { outcome = Types.Aborted; _ } -> 52
  | Ack_msg { damage = []; pending = false; _ } -> 53
  | Ack_msg { damage = []; pending = true; _ } -> 54
  | Ack_msg _ -> -1
  | Data { info = ""; _ } -> 55
  | Data _ -> -1
  | Inquiry _ -> 56
  | Inquiry_reply { outcome = None; _ } -> 57
  | Inquiry_reply { outcome = Some Types.Committed; _ } -> 58
  | Inquiry_reply { outcome = Some Types.Aborted; _ } -> 59

(* Seven bits per payload, first payload highest, up to eight payloads. *)
let rec bundle_code_from code n = function
  | [] -> code
  | p :: rest ->
      let c = payload_code p in
      if c < 0 || n = 8 then -1 else bundle_code_from ((code lsl 7) lor c) (n + 1) rest

let bundle_code payloads = bundle_code_from 0 0 payloads
