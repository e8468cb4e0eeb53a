(** Wire codecs: values, transactions, and group configurations to and
    from strings (the broadcast service carries opaque string payloads).

    v2 binary format: one ASCII tag byte per constructor, zigzag LEB128
    varints for ints, varint-length-prefixed raw bytes for strings (so
    arbitrary text in values round-trips), 8-byte little-endian IEEE 754
    for floats. Encoders share one [Buffer]; decoders walk a cursor with
    no tail copies. See DESIGN.md for the format and its truncation
    -rejection argument. *)

val encode_value : Storage.Value.t -> string
val decode_value : string -> (Storage.Value.t * string, string) result
(** Returns the value and the remaining input. *)

val encode_txn : Txn.t -> string
val decode_txn : string -> (Txn.t, string) result

val encode_config : Config.t -> string
val decode_config : string -> (Config.t, string) result

val encode_reconfig : Config.t -> last_seq:int -> proposer:int -> string
val decode_reconfig : string -> (Config.t * int * int, string) result
(** SMR reconfiguration request: new config, proposer's last executed
    sequence number, proposer location. *)

(** {1 Socket-runtime wire codecs}

    Full message codecs for running ShadowDB nodes over real sockets:
    broadcast entries and delivery notifications, Paxos protocol messages
    (parameterized by a command codec), and database replication
    messages. All decoders reject truncated or trailing bytes. *)

val encode_entry : Broadcast.Tob.entry -> string

val decode_entry :
  string -> (Broadcast.Tob.entry * string, string) result
(** Streaming: returns the entry and the remaining input. *)

val encode_batch : Broadcast.Tob.batch -> string

val decode_batch :
  string -> (Broadcast.Tob.batch * string, string) result
(** Streaming: returns the batch and the remaining input. *)

val decode_batch_all : string -> (Broadcast.Tob.batch, string) result
(** Whole-buffer variant: fails on trailing bytes. *)

val encode_deliver : Broadcast.Tob.deliver -> string
val decode_deliver : string -> (Broadcast.Tob.deliver, string) result

val encode_paxos :
  ('c -> string) -> 'c Consensus.Paxos_msg.t -> string

val decode_paxos :
  (string -> ('c, string) result) ->
  string ->
  ('c Consensus.Paxos_msg.t, string) result

val encode_core_paxos : Broadcast.Tob.batch Consensus.Paxos_msg.t -> string
(** {!encode_paxos} instantiated at the TOB batch command type — the
    consensus core the paper's broadcast service actually runs. *)

val decode_core_paxos :
  string -> (Broadcast.Tob.batch Consensus.Paxos_msg.t, string) result

val encode_db_msg : Db_msg.t -> string
val decode_db_msg : string -> (Db_msg.t, string) result

(** {1 Sharded 2PC payloads}

    Prepare and decision records for cross-shard transactions. They ride
    inside each participant shard's own TOB stream, so they are encoded
    bare here — the System layer frames them with its payload tag. *)

val encode_prepare :
  coord:int -> shard:int -> participants:int list -> ptxn:Txn.t -> string

val decode_prepare : string -> (int * int * int list * Txn.t, string) result
(** [(coord, shard, participants, ptxn)]. *)

val encode_decision : shard:int -> commit:bool -> dtxn:Txn.t -> string

val decode_decision : string -> (int * bool * Txn.t, string) result
(** [(shard, commit, dtxn)] — the decision carries the sub-transaction
    so a replica that missed the prepare can still apply a commit. *)

val encode_rows : (string * Storage.Value.t array) list -> string
val decode_rows :
  string -> ((string * Storage.Value.t array) list, string) result
(** Bare row dumps — the durability layer's snapshot payload (a whole
    [Database.dump] image with no message framing). *)
