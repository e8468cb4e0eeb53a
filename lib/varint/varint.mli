(** Zigzag LEB128 varints, shared by every binary format in the tree. *)

type cursor = { s : string; mutable pos : int }
(** A read position in an immutable buffer. *)

type error =
  | Truncated  (** The buffer ends inside the varint. *)
  | Overlong  (** A continuation past the ninth byte. *)

exception Malformed of error

val add : Buffer.t -> int -> unit
(** Append the encoding of an int (1 byte for magnitudes below 64). *)

val read : cursor -> int
(** Decode at [pos] and advance past the varint.
    @raise Malformed without moving [pos]. *)
