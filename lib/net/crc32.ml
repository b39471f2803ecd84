(** CRC-32 (IEEE 802.3, the zlib polynomial), table-driven.

    Digests chain: [string ~crc:(string part1) part2] equals the digest
    of the concatenation, so a frame header and payload can be checked
    without copying them into one buffer. *)

let poly = 0xedb88320

(* Built at module initialisation, not lazily: server loop domains and
   clients digest their first frames concurrently, and forcing one lazy
   value from two domains at once raises [CamlinternalLazy.Undefined]. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(** [string ?crc ?off ?len s] — digest of the byte range, continuing from
    [crc] (default 0, a fresh digest). *)
let string ?(crc = 0) ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  let c = ref (crc lxor 0xffffffff) in
  for i = off to off + len - 1 do
    c := table.((!c lxor Char.code (String.unsafe_get s i)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff
