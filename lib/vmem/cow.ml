(** Copy-on-write byte stores: the one rewind rule of the snapshot layers.

    A store owns equal-length, zero-filled byte layers — a {!Segment}'s
    contents and taint, a sanitizer shadow's states — under one
    page-granular dirty map, and remembers by physical identity the
    frozen copy that every clean page currently equals; a new store is
    synced to the all-zero image. Writers mark the pages they touch;
    [freeze] and [restore] are the only sync points. A frozen copy keeps
    only the pages that are not one byte repeated. *)

(* 256-byte pages keep the dirty map tiny (1 KiB for the 256 KiB heap),
   make a lightly dirtied rewind write a few hundred bytes instead of
   megabytes, and let a frozen copy of a mostly-blank segment keep a
   handful of pages. *)
let page_shift = 8
let page_size = 1 lsl page_shift

(* Per layer, one little-endian 32-bit entry per page: below 256 the page
   is that fill byte repeated, otherwise it is private page [e - 256] of
   [fz_data]. A layer whose every page is zero has the empty map. Only
   byte blocks hang off a frozen copy, so the GC never scans its pages;
   nothing writes one after [freeze] made it, so it may be shared between
   stores and domains. *)
type frozen = {
  fz_len : int;  (* bytes per layer *)
  fz_maps : Bytes.t array;
  fz_data : Bytes.t;  (* the private pages, packed *)
}

type t = {
  layers : Bytes.t array;
  len : int;  (* bytes per layer *)
  pages : Bytes.t;  (* one byte per page; nonzero = written since the sync *)
  mutable any : bool;  (* false implies every page byte is zero *)
  mutable synced : frozen;  (* the copy every clean page equals *)
}

let make ~layers len =
  if layers <= 0 then invalid_arg "Cow.make: no layers";
  if len < 0 then invalid_arg "Cow.make: negative length";
  {
    layers = Array.init layers (fun _ -> Bytes.make len '\000');
    len;
    pages = Bytes.make ((len + page_size - 1) lsr page_shift) '\000';
    any = false;
    synced =
      { fz_len = len; fz_maps = Array.make layers Bytes.empty; fz_data = Bytes.empty };
  }

let layer t i = t.layers.(i)

let[@inline] mark t off len =
  if len > 0 then begin
    let p0 = off lsr page_shift and p1 = (off + len - 1) lsr page_shift in
    if p0 = p1 then Bytes.unsafe_set t.pages p0 '\001'
    else Bytes.fill t.pages p0 (p1 - p0 + 1) '\001';
    t.any <- true
  end

let clear t =
  if t.any then begin
    Bytes.fill t.pages 0 (Bytes.length t.pages) '\000';
    t.any <- false
  end

let[@inline] entry map p =
  if Bytes.length map = 0 then 0
  else Int32.to_int (Bytes.get_int32_le map (p lsl 2))

let[@inline] page_len t p = min page_size (t.len - (p lsl page_shift))

(* The byte every one of [l.[off .. off+n)] holds, or -1 when they differ. *)
let fill_of l off n =
  let c = Bytes.unsafe_get l off in
  let w = Int64.mul (Int64.of_int (Char.code c)) 0x0101010101010101L in
  let lim = off + n in
  let i = ref off in
  while !i + 8 <= lim && Int64.equal (Bytes.get_int64_ne l !i) w do
    i := !i + 8
  done;
  while !i < lim && Bytes.unsafe_get l !i = c do incr i done;
  if !i = lim then Char.code c else -1

(* Classify the dirty pages; a clean page keeps the synced copy's entry,
   since it still equals that copy. Every private page, dirty or clean,
   is then copied from the live layer. *)
let freeze t =
  if not t.any then t.synced
  else begin
    let npages = Bytes.length t.pages in
    let nprivate = ref 0 in
    let maps =
      Array.mapi
        (fun i l ->
          let sm = t.synced.fz_maps.(i) in
          let map = ref Bytes.empty in
          for p = 0 to npages - 1 do
            let e =
              if Bytes.unsafe_get t.pages p = '\000' then entry sm p
              else fill_of l (p lsl page_shift) (page_len t p)
            in
            let e =
              if e >= 0 && e < 256 then e
              else begin
                incr nprivate;
                255 + !nprivate  (* 256 + the page's index in [data] *)
              end
            in
            if e <> 0 then begin
              if Bytes.length !map = 0 then map := Bytes.make (npages lsl 2) '\000';
              Bytes.set_int32_le !map (p lsl 2) (Int32.of_int e)
            end
          done;
          !map)
        t.layers
    in
    let data = Bytes.create (!nprivate lsl page_shift) in
    Array.iteri
      (fun i map ->
        for p = 0 to npages - 1 do
          let e = entry map p in
          if e >= 256 then
            Bytes.blit t.layers.(i) (p lsl page_shift) data
              ((e - 256) lsl page_shift) (page_len t p)
        done)
      maps;
    let fz = { fz_len = t.len; fz_maps = maps; fz_data = data } in
    clear t;
    t.synced <- fz;
    fz
  end

let write_page t l fz e p =
  let off = p lsl page_shift in
  if e < 256 then Bytes.unsafe_fill l off (page_len t p) (Char.unsafe_chr e)
  else Bytes.blit fz.fz_data ((e - 256) lsl page_shift) l off (page_len t p)

(* A page is written when it is dirty, when its target is private, or
   when its target fill differs from the synced copy's entry. Against the
   synced copy itself only dirty pages qualify; two all-zero layers
   agree on every page. *)
let restore t fz =
  let s = t.synced in
  if s != fz && (Array.length fz.fz_maps <> Array.length t.layers || fz.fz_len <> t.len)
  then invalid_arg "Cow.restore: frozen copy of another shape";
  if t.any || s != fz then begin
    Array.iteri
      (fun i l ->
        let fm = fz.fz_maps.(i) and sm = s.fz_maps.(i) in
        let same = s == fz || (Bytes.length fm = 0 && Bytes.length sm = 0) in
        if t.any || not same then
          for p = 0 to Bytes.length t.pages - 1 do
            let e = entry fm p in
            if Bytes.unsafe_get t.pages p <> '\000'
               || ((not same) && (e >= 256 || e <> entry sm p))
            then write_page t l fz e p
          done)
      t.layers;
    clear t;
    t.synced <- fz
  end
