exception Decode_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

(* Unsigned LEB128, the one varint encoding: seven bits a byte, low group
   first, the high bit set on every byte but the last. [Writer.varint]
   and [set_varint] both emit exactly these bytes. *)
let varint_size v =
  let rec go n v = if v < 0x80 then n else go (n + 1) (v lsr 7) in
  go 1 v

let varint_byte v i ~size =
  let group = (v lsr (7 * i)) land 0x7F in
  if i = size - 1 then group else 0x80 lor group

module Writer = struct
  type t = { buf : Buffer.t }

  let create ?(capacity = 256) () = { buf = Buffer.create capacity }
  let length t = Buffer.length t.buf
  let u8 t v = Buffer.add_char t.buf (Char.chr (v land 0xFF))

  let u16 t v =
    u8 t v;
    u8 t (v lsr 8)

  let u32 t v =
    u16 t v;
    u16 t (v lsr 16)

  let u64 t v =
    for shift = 0 to 7 do
      u8 t (Int64.to_int (Int64.shift_right_logical v (8 * shift)))
    done

  let varint t v =
    if v < 0 then invalid_arg "Wire.Writer.varint: negative";
    let size = varint_size v in
    for i = 0 to size - 1 do
      u8 t (varint_byte v i ~size)
    done

  let bytes t b = Buffer.add_bytes t.buf b

  let sized_bytes t b =
    varint t (Bytes.length b);
    bytes t b

  let string t s =
    varint t (String.length s);
    Buffer.add_string t.buf s

  let contents t = Buffer.to_bytes t.buf
end

module Reader = struct
  type t = { data : bytes; mutable pos : int }

  let of_bytes ?(pos = 0) data = { data; pos }
  let pos t = t.pos
  let remaining t = Bytes.length t.data - t.pos

  let u8 t =
    if remaining t < 1 then fail "u8: truncated at %d" t.pos;
    let v = Char.code (Bytes.get t.data t.pos) in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    let lo = u8 t in
    let hi = u8 t in
    lo lor (hi lsl 8)

  (* Word-width fields load in one unaligned access ([get_int32_le] is a
     compiler primitive); the page codec reads tens of these per page on
     the cache-miss path. *)
  let u32 t =
    if remaining t < 4 then fail "u32: truncated at %d" t.pos;
    let v = Int32.to_int (Bytes.get_int32_le t.data t.pos) land 0xFFFFFFFF in
    t.pos <- t.pos + 4;
    v

  let u64 t =
    if remaining t < 8 then fail "u64: truncated at %d" t.pos;
    let v = Bytes.get_int64_le t.data t.pos in
    t.pos <- t.pos + 8;
    v

  let varint t =
    let rec go shift acc =
      if shift > 56 then fail "varint: too long at %d" t.pos;
      let b = u8 t in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let bytes t n =
    if n < 0 || remaining t < n then fail "bytes: truncated (%d wanted at %d)" n t.pos;
    let b = Bytes.sub t.data t.pos n in
    t.pos <- t.pos + n;
    b

  let sized_bytes t =
    let n = varint t in
    bytes t n

  let string t = Bytes.to_string (sized_bytes t)

  let expect_end t = if remaining t <> 0 then fail "trailing garbage: %d bytes" (remaining t)
end

let set_varint b pos v =
  if v < 0 then invalid_arg "Wire.set_varint: negative";
  let size = varint_size v in
  for i = 0 to size - 1 do
    Bytes.set_uint8 b (pos + i) (varint_byte v i ~size)
  done;
  pos + size

(* Slicing-by-8 CRC-32 (IEEE, reflected 0xEDB88320). [crc_tables] holds
   eight 256-entry tables back to back: table 0 is the classic bytewise
   one, and table [k] advances a byte through [k] further zero bytes, so
   one step folds eight input bytes with eight lookups. The result is
   the standard CRC-32; every stable block is sealed with it, so it must
   never change. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

(* The loop body indexes the flat table by hand: local helper closures
   would be allocated on every call. *)
let crc32_sub b pos len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Wire.crc32_sub";
  let t = crc_tables in
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let w = Bytes.get_int64_le b !i in
    let lo = !c lxor (Int64.to_int w land 0xFFFFFFFF) in
    let hi = Int64.to_int (Int64.shift_right_logical w 32) in
    c :=
      Array.unsafe_get t (0x700 lor (lo land 0xFF))
      lxor Array.unsafe_get t (0x600 lor ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t (0x500 lor ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t (0x400 lor (lo lsr 24))
      lxor Array.unsafe_get t (0x300 lor (hi land 0xFF))
      lxor Array.unsafe_get t (0x200 lor ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (0x100 lor ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    c := Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get b j)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 b = crc32_sub b 0 (Bytes.length b)
