(* Round-trip properties for the ShadowDB wire codecs.

   The live socket runtime depends on encode/decode being exact inverses
   for every message the system can put on a link — values, transactions,
   broadcast entries and deliveries, Paxos protocol messages carrying
   entry batches, and database replication messages — and on every
   decoder rejecting truncated buffers instead of misparsing them. *)

module Codec = Shadowdb.Codec
module Value = Storage.Value
module Txn = Shadowdb.Txn
module Db_msg = Shadowdb.Db_msg
module Tob = Broadcast.Tob
module PM = Consensus.Paxos_msg

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_value =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) int;
        map (fun f -> Value.Float f) (float_bound_exclusive 1e6);
        map (fun s -> Value.Text s) (string_size (0 -- 20));
      ])

let gen_txn =
  QCheck.Gen.(
    map4
      (fun client seq kind params -> { Txn.client; seq; kind; params })
      (0 -- 1000) (0 -- 1000)
      (string_size ~gen:(char_range 'a' 'z') (1 -- 12))
      (list_size (0 -- 5) gen_value))

let gen_entry =
  QCheck.Gen.(
    map3
      (fun origin id payload -> { Tob.origin; id; payload })
      (0 -- 100) (0 -- 10_000)
      (string_size (0 -- 30)))

let gen_batch = QCheck.Gen.(list_size (0 -- 6) gen_entry)

let gen_deliver =
  QCheck.Gen.(
    map2 (fun seqno entry -> { Tob.seqno; entry }) (0 -- 10_000) gen_entry)

let gen_ballot =
  QCheck.Gen.(map2 (fun round leader -> { PM.round; leader }) (0 -- 50) (0 -- 9))

let gen_pvalue =
  QCheck.Gen.(
    map3 (fun b s c -> { PM.b; s; c }) gen_ballot (0 -- 1000) gen_batch)

let gen_paxos =
  QCheck.Gen.(
    oneof
      [
        map2 (fun src b -> PM.P1a { src; b }) (0 -- 9) gen_ballot;
        map3
          (fun src b accepted -> PM.P1b { src; b; accepted })
          (0 -- 9) gen_ballot
          (list_size (0 -- 4) gen_pvalue);
        map2 (fun src pv -> PM.P2a { src; pv }) (0 -- 9) gen_pvalue;
        map3
          (fun src b s -> PM.P2b { src; b; s })
          (0 -- 9) gen_ballot (0 -- 1000);
        map2 (fun s c -> PM.Propose { s; c }) (0 -- 1000) gen_batch;
        map2 (fun s c -> PM.Decision { s; c }) (0 -- 1000) gen_batch;
      ])

let gen_reply =
  QCheck.Gen.(
    map3
      (fun client seq outcome -> { Txn.client; seq; outcome })
      (0 -- 1000) (0 -- 1000)
      (oneof
         [
           map
             (fun rows -> Ok (List.map Array.of_list rows))
             (list_size (0 -- 3) (list_size (0 -- 3) gen_value));
           map (fun e -> Error e) (string_size (0 -- 15));
         ]))

let gen_row =
  QCheck.Gen.(
    map2
      (fun key vs -> (key, Array.of_list vs))
      (string_size ~gen:(char_range 'A' 'Z') (1 -- 8))
      (list_size (0 -- 4) gen_value))

let gen_db_msg =
  QCheck.Gen.(
    oneof
      [
        map (fun t -> Db_msg.Client_txn t) gen_txn;
        map3
          (fun cfg gseq txn -> Db_msg.Forward { cfg; gseq; txn })
          (0 -- 20) (0 -- 10_000) gen_txn;
        map2 (fun cfg gseq -> Db_msg.Ack { cfg; gseq }) (0 -- 20) (0 -- 10_000);
        map (fun r -> Db_msg.Reply r) gen_reply;
        map (fun cfg -> Db_msg.Heartbeat { cfg }) (0 -- 20);
        map2
          (fun cfg last_seq -> Db_msg.Elect { cfg; last_seq })
          (0 -- 20) (0 -- 10_000);
        map3
          (fun cfg txns upto -> Db_msg.Catchup { cfg; txns; upto })
          (0 -- 20)
          (list_size (0 -- 3) (pair (0 -- 10_000) gen_txn))
          (0 -- 10_000);
        (let* cfg = 0 -- 20
         and* rows = list_size (0 -- 3) gen_row
         and* upto = 0 -- 10_000
         and* last = bool
         and* clients = list_size (0 -- 3) gen_reply in
         return (Db_msg.Snapshot { cfg; rows; upto; last; clients }));
        map (fun cfg -> Db_msg.Recovered { cfg }) (0 -- 20);
        map2
          (fun cfg from_seq -> Db_msg.Snapshot_req { cfg; from_seq })
          (0 -- 20) (0 -- 10_000);
      ])

(* ------------------------------------------------------------------ *)
(* encode ∘ decode = id                                                *)
(* ------------------------------------------------------------------ *)

let roundtrip ~name ~gen ~print ~enc ~dec =
  QCheck.Test.make ~name ~count:300
    (QCheck.make ~print gen)
    (fun m -> match dec (enc m) with Ok m' -> m' = m | Error _ -> false)

let prop_value =
  QCheck.Test.make ~name:"value round-trips" ~count:300
    (QCheck.make ~print:Value.to_string gen_value)
    (fun v ->
      match Codec.decode_value (Codec.encode_value v) with
      | Ok (v', "") -> v' = v
      | Ok _ | Error _ -> false)

let prop_txn =
  roundtrip ~name:"txn round-trips" ~gen:gen_txn
    ~print:(fun t -> t.Txn.kind)
    ~enc:Codec.encode_txn ~dec:Codec.decode_txn

let prop_entry =
  QCheck.Test.make ~name:"entry round-trips (streaming)" ~count:300
    (QCheck.make ~print:(fun e -> e.Tob.payload) gen_entry)
    (fun e ->
      match Codec.decode_entry (Codec.encode_entry e ^ "tail") with
      | Ok (e', "tail") -> e' = e
      | Ok _ | Error _ -> false)

let prop_batch =
  roundtrip ~name:"batch round-trips" ~gen:gen_batch
    ~print:(fun b -> string_of_int (List.length b))
    ~enc:Codec.encode_batch ~dec:Codec.decode_batch_all

let prop_deliver =
  roundtrip ~name:"deliver round-trips" ~gen:gen_deliver
    ~print:(fun d -> string_of_int d.Tob.seqno)
    ~enc:Codec.encode_deliver ~dec:Codec.decode_deliver

let prop_paxos =
  roundtrip ~name:"paxos msg round-trips" ~gen:gen_paxos
    ~print:(fun m ->
      Format.asprintf "%a" (PM.pp (fun fmt b -> Format.fprintf fmt "|%d|" (List.length b))) m)
    ~enc:Codec.encode_core_paxos ~dec:Codec.decode_core_paxos

let prop_db_msg =
  roundtrip ~name:"db msg round-trips" ~gen:gen_db_msg
    ~print:(fun m -> string_of_int (Db_msg.size m))
    ~enc:Codec.encode_db_msg ~dec:Codec.decode_db_msg

(* ------------------------------------------------------------------ *)
(* Truncation rejection: every strict prefix must decode to Error.     *)
(* A decoder that accepts a prefix would silently drop fields when a    *)
(* TCP read boundary lands mid-message.                                 *)
(* ------------------------------------------------------------------ *)

let rejects_prefixes ~dec bytes =
  let ok = ref true in
  for len = 0 to String.length bytes - 1 do
    match dec (String.sub bytes 0 len) with
    | Ok _ -> ok := false
    | Error _ -> ()
  done;
  !ok

let prop_paxos_truncation =
  QCheck.Test.make ~name:"paxos decoder rejects truncated buffers" ~count:100
    (QCheck.make ~print:(fun _ -> "paxos msg") gen_paxos)
    (fun m -> rejects_prefixes ~dec:Codec.decode_core_paxos (Codec.encode_core_paxos m))

let prop_db_truncation =
  QCheck.Test.make ~name:"db decoder rejects truncated buffers" ~count:100
    (QCheck.make ~print:(fun _ -> "db msg") gen_db_msg)
    (fun m -> rejects_prefixes ~dec:Codec.decode_db_msg (Codec.encode_db_msg m))

let prop_deliver_truncation =
  QCheck.Test.make ~name:"deliver decoder rejects truncated buffers"
    ~count:100
    (QCheck.make ~print:(fun _ -> "deliver") gen_deliver)
    (fun d -> rejects_prefixes ~dec:Codec.decode_deliver (Codec.encode_deliver d))

let test_garbage_rejected () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "garbage %S rejected" s)
        true
        (Result.is_error (Codec.decode_db_msg s)
        && Result.is_error (Codec.decode_core_paxos s)
        && Result.is_error (Codec.decode_deliver s)))
    [
      "";
      "Z" (* bad tag / truncated body *);
      "\x80" (* unterminated varint at the tag position *);
      "A\x80" (* field varint with a dangling continuation bit *);
      "C" (* valid tag, empty body *);
      "F\x01\x01" (* valid tag, body stops mid-record *);
      "S\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff" (* overlong varint *);
    ]

(* The shared varint primitive at its limits: the extreme ints take the
   full nine bytes and round-trip, every proper prefix is [Truncated], a
   tenth byte is [Overlong] — and the codec rejects what it rejects. *)
let test_varint_bounds () =
  let malformed s =
    match Varint.read { Varint.s; pos = 0 } with
    | _ -> None
    | exception Varint.Malformed e -> Some e
  in
  List.iter
    (fun n ->
      let b = Buffer.create 9 in
      Varint.add b n;
      let s = Buffer.contents b in
      Alcotest.(check int) (Printf.sprintf "%d round-trips" n) n
        (Varint.read { Varint.s; pos = 0 });
      for cut = 0 to String.length s - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "%d cut at %d is truncated" n cut)
          true
          (malformed (String.sub s 0 cut) = Some Varint.Truncated)
      done)
    [ 0; -1; 63; -64; 64; max_int; min_int ];
  let b = Buffer.create 9 in
  Varint.add b max_int;
  Alcotest.(check int) "max_int takes nine bytes" 9 (Buffer.length b);
  let ten = String.make 9 '\xff' ^ "\x01" in
  Alcotest.(check bool) "tenth byte is overlong" true
    (malformed ten = Some Varint.Overlong);
  Alcotest.(check bool) "codec accepts a nine-byte int" true
    (Codec.decode_value ("I" ^ Buffer.contents b) = Ok (Value.Int max_int, ""));
  Alcotest.(check bool) "codec rejects a ten-byte int" true
    (Result.is_error (Codec.decode_value ("I" ^ ten)))

(* ------------------------------------------------------------------ *)
(* Golden vectors: exact encoded bytes for fixed messages. These catch  *)
(* silent format drift — any change to the v2 wire layout must be       *)
(* deliberate (update the bytes here and the DESIGN.md format note).    *)
(* ------------------------------------------------------------------ *)

let golden_txn =
  {
    Txn.client = 7;
    seq = 42;
    kind = "put";
    params =
      [
        Value.Null;
        Value.Bool true;
        Value.Int (-3);
        Value.Int 300;
        Value.Float 1.5;
        Value.Text "hi";
      ];
  }

let golden_txn_bytes =
  "\x0e\x54\x06\x70\x75\x74\x0c\x4e\x54\x49\x05\x49\xd8\x04\x46\x00\x00\x00\x00\x00\x00\xf8\x3f\x53\x04\x68\x69"

let golden_batch =
  [
    { Tob.origin = 1; id = 2; payload = "ab" };
    { Tob.origin = 3; id = 130; payload = "" };
  ]

let golden_batch_bytes = "\x04\x02\x04\x04\x61\x62\x06\x84\x02\x00"

let golden_paxos =
  PM.P2a
    {
      src = 2;
      pv = { PM.b = { PM.round = 1; leader = 0 }; s = 5; c = golden_batch };
    }

let golden_paxos_bytes =
  "\x43\x04\x02\x00\x0a\x04\x02\x04\x04\x61\x62\x06\x84\x02\x00"

let test_golden_encodings () =
  Alcotest.(check string)
    "txn golden bytes" golden_txn_bytes
    (Codec.encode_txn golden_txn);
  Alcotest.(check string)
    "batch golden bytes" golden_batch_bytes
    (Codec.encode_batch golden_batch);
  Alcotest.(check string)
    "paxos golden bytes" golden_paxos_bytes
    (Codec.encode_core_paxos golden_paxos)

let test_golden_decodings () =
  Alcotest.(check bool)
    "txn golden decodes" true
    (Codec.decode_txn golden_txn_bytes = Ok golden_txn);
  Alcotest.(check bool)
    "batch golden decodes" true
    (Codec.decode_batch_all golden_batch_bytes = Ok golden_batch);
  Alcotest.(check bool)
    "paxos golden decodes" true
    (Codec.decode_core_paxos golden_paxos_bytes = Ok golden_paxos)

let test_golden_truncations () =
  Alcotest.(check bool)
    "every txn truncation rejected" true
    (rejects_prefixes ~dec:Codec.decode_txn golden_txn_bytes);
  Alcotest.(check bool)
    "every batch truncation rejected" true
    (rejects_prefixes ~dec:Codec.decode_batch_all golden_batch_bytes);
  Alcotest.(check bool)
    "every paxos truncation rejected" true
    (rejects_prefixes ~dec:Codec.decode_core_paxos golden_paxos_bytes)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "codec"
    [
      ( "roundtrip",
        [
          qt prop_value;
          qt prop_txn;
          qt prop_entry;
          qt prop_batch;
          qt prop_deliver;
          qt prop_paxos;
          qt prop_db_msg;
        ] );
      ( "truncation",
        [
          qt prop_paxos_truncation;
          qt prop_db_truncation;
          qt prop_deliver_truncation;
          Alcotest.test_case "garbage rejected" `Quick test_garbage_rejected;
          Alcotest.test_case "varint bounds" `Quick test_varint_bounds;
        ] );
      ( "golden",
        [
          Alcotest.test_case "encodings" `Quick test_golden_encodings;
          Alcotest.test_case "decodings" `Quick test_golden_decodings;
          Alcotest.test_case "truncations rejected" `Quick
            test_golden_truncations;
        ] );
    ]
