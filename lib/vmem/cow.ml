(** Copy-on-write building blocks shared by the snapshot layers.

    Two pieces: globally unique generation tokens (mint one at every
    mutation of a versioned structure; token equality then proves the
    structure has not changed since a snapshot captured it), and a
    page-granular dirty bitmap — every {!Segment}'s contents, the
    sanitizer's shadow maps and the text heap's bytes use it, so each of
    their restores blits only touched pages. *)

(* Tokens are minted from one process-wide atomic so that snapshots can
   travel between machines and domains (the service's replica-thaw path)
   without two different states ever sharing a token. 0 is reserved as
   "never synced". *)
let gen_counter = Atomic.make 0

let fresh_gen () = 1 + Atomic.fetch_and_add gen_counter 1

module Bitmap = struct
  (* 256-byte pages keep a bitmap tiny (1 KiB for the 256 KiB heap)
     while making a lightly dirtied rewind blit a few hundred bytes
     instead of megabytes. *)
  let page_shift = 8
  let page_size = 1 lsl page_shift

  type t = {
    len : int;  (* covered bytes *)
    pages : Bytes.t;  (* one byte per page; nonzero = touched *)
    mutable any : bool;  (* false implies every page byte is zero *)
  }

  let create len =
    if len < 0 then invalid_arg "Cow.Bitmap.create: negative length";
    {
      len;
      pages = Bytes.make ((len + page_size - 1) lsr page_shift) '\001';
      any = true;
    }

  let[@inline] mark t off len =
    if len > 0 then begin
      let p0 = off lsr page_shift and p1 = (off + len - 1) lsr page_shift in
      if p0 = p1 then Bytes.unsafe_set t.pages p0 '\001'
      else Bytes.fill t.pages p0 (p1 - p0 + 1) '\001';
      t.any <- true
    end

  let mark_all t =
    Bytes.fill t.pages 0 (Bytes.length t.pages) '\001';
    t.any <- true

  let clear t =
    if t.any then begin
      Bytes.fill t.pages 0 (Bytes.length t.pages) '\000';
      t.any <- false
    end

  let any t = t.any

  (* [f off len] over maximal dirty-page runs, clamped to the covered
     length. *)
  let iter_runs t f =
    if t.any then begin
      let npages = Bytes.length t.pages in
      let i = ref 0 in
      while !i < npages do
        if Bytes.unsafe_get t.pages !i <> '\000' then begin
          let j = ref (!i + 1) in
          while !j < npages && Bytes.unsafe_get t.pages !j <> '\000' do
            incr j
          done;
          let o = !i lsl page_shift in
          f o (min (!j lsl page_shift) t.len - o);
          i := !j
        end
        else incr i
      done
    end
end
