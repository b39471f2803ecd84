(** Copy-on-write byte stores: the one rewind rule of the snapshot layers.

    A store holds equal-length byte layers — a {!Segment}'s contents and
    taint, a sanitizer shadow's states — under one page-granular dirty
    map, and remembers by physical identity the frozen copy that every
    clean page currently equals. Writers mark the pages they touch;
    [freeze] and [restore] are the only sync points. *)

(* 256-byte pages keep the dirty map tiny (1 KiB for the 256 KiB heap)
   while making a lightly dirtied rewind blit a few hundred bytes
   instead of megabytes. *)
let page_shift = 8
let page_size = 1 lsl page_shift

(* Private copies of the layers. Nothing ever writes one after [freeze]
   made it, so a frozen copy may be shared between stores and domains. *)
type frozen = Bytes.t array

type t = {
  layers : Bytes.t array;
  len : int;  (* bytes per layer *)
  pages : Bytes.t;  (* one byte per page; nonzero = written since the sync *)
  mutable any : bool;  (* false implies every page byte is zero *)
  mutable synced : frozen option;
      (* the copy every clean page equals; [None] before the first sync *)
}

let create layers =
  if Array.length layers = 0 then invalid_arg "Cow.create: no layers";
  let len = Bytes.length layers.(0) in
  if Array.exists (fun l -> Bytes.length l <> len) layers then
    invalid_arg "Cow.create: layers differ in length";
  {
    layers;
    len;
    pages = Bytes.make ((len + page_size - 1) lsr page_shift) '\000';
    any = false;
    synced = None;
  }

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

let freeze t =
  match t.synced with
  | Some fz when not t.any -> fz
  | _ ->
    let fz = Array.map Bytes.copy t.layers in
    clear t;
    t.synced <- Some fz;
    fz

(* [f off len] over maximal dirty-page runs, clamped to the layer
   length. *)
let iter_runs t f =
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

let blit_layers t fz off len =
  Array.iteri (fun i l -> Bytes.blit fz.(i) off l off len) t.layers

let restore t fz =
  match t.synced with
  | Some s when s == fz ->
    if t.any then begin
      iter_runs t (blit_layers t fz);
      clear t
    end
  | _ ->
    if Array.length fz <> Array.length t.layers || Bytes.length fz.(0) <> t.len
    then invalid_arg "Cow.restore: frozen copy of another shape";
    blit_layers t fz 0 t.len;
    clear t;
    t.synced <- Some fz
