(* The backing array grows on demand (doubling from 16) up to the
   capacity, so an armed but idle ring costs a few words and memory
   tracks what is retained. Once full, each push overwrites the oldest
   slot and counts one drop. *)

type 'a t = {
  cap : int;
  mutable buf : 'a array;  (* grown on demand, never past [cap] *)
  mutable len : int;  (* retained values, <= cap *)
  mutable head : int;  (* slot of the oldest value once full; 0 before *)
  mutable dropped : int;  (* values overwritten since [create]/[clear] *)
}

let create cap =
  if cap < 1 then invalid_arg "Ring.create: capacity must be positive";
  { cap; buf = [||]; len = 0; head = 0; dropped = 0 }

let push t x =
  if t.len < t.cap then begin
    if t.len = Array.length t.buf then begin
      let buf = Array.make (min t.cap (max 16 (2 * t.len))) x in
      Array.blit t.buf 0 buf 0 t.len;
      t.buf <- buf
    end;
    t.buf.(t.len) <- x;
    t.len <- t.len + 1
  end
  else begin
    t.buf.(t.head) <- x;
    t.head <- (if t.head + 1 = t.cap then 0 else t.head + 1);
    t.dropped <- t.dropped + 1
  end

(* Before the ring fills [head] is 0 and every index is below [len];
   once full the buffer holds exactly [cap] slots. *)
let to_list t = List.init t.len (fun i -> t.buf.((t.head + i) mod t.cap))

let length t = t.len
let dropped t = t.dropped

let clear t =
  t.buf <- [||];
  t.len <- 0;
  t.head <- 0;
  t.dropped <- 0

let copy t = { t with buf = Array.sub t.buf 0 (Array.length t.buf) }
