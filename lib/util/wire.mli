(** Little-endian byte readers and writers for on-disk page images and RPC
    message bodies. Decoding failures raise {!Decode_error} rather than
    returning partial garbage: a corrupted block must be detected, because
    the stable-storage layer (§4) falls back to the companion server on
    corruption. *)

exception Decode_error of string

module Writer : sig
  type t

  val create : ?capacity:int -> unit -> t

  val length : t -> int
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val u64 : t -> int64 -> unit
  val varint : t -> int -> unit
  (** Unsigned LEB128; compact for small reference counts and sizes. *)

  val bytes : t -> bytes -> unit
  (** Raw bytes, no length prefix. *)

  val sized_bytes : t -> bytes -> unit
  (** Varint length prefix followed by the bytes. *)

  val string : t -> string -> unit
  (** Same framing as [sized_bytes]. *)

  val contents : t -> bytes
end

module Reader : sig
  type t

  val of_bytes : ?pos:int -> bytes -> t
  (** A reader starting at [pos] (default 0). *)

  val pos : t -> int
  (** The offset of the next byte to read. *)

  val remaining : t -> int
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val u64 : t -> int64
  val varint : t -> int
  val bytes : t -> int -> bytes
  val sized_bytes : t -> bytes
  val string : t -> string
  val expect_end : t -> unit
  (** Raises {!Decode_error} if any input remains. *)
end

val varint_size : int -> int
(** Bytes {!Writer.varint} takes to encode a non-negative int. *)

val set_varint : bytes -> int -> int -> int
(** [set_varint b pos v] writes [v] at [pos] with {!Writer.varint}'s
    encoding, in place, and returns the position after it. *)

val crc32 : bytes -> int
(** CRC-32 (IEEE polynomial) used as the page-image integrity check. *)

val crc32_sub : bytes -> int -> int -> int
(** [crc32_sub b pos len] is [crc32 (Bytes.sub b pos len)] without the
    copy. Raises [Invalid_argument] if the range is not inside [b]. *)
