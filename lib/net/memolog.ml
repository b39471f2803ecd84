(** The on-disk memo cache: an append-only log of
    {!Pna_service.Service.memo_entry} records.

    {v
      file  = magic  record*
      magic = "PNAMEMO1"                      (8 bytes)
      record = len u32 | crc32 u32 | payload  (payload: Frame memo codec)
    v}

    Crash-recovery argument: records are only ever appended and each is
    flushed whole, so after a [kill -9] the file is a valid prefix plus
    at most one torn record. {!open_log} scans from the start, keeps
    every record whose length is sane, CRC matches and payload decodes,
    and {e physically truncates} the file at the first bad one — the
    torn tail is dropped, never served, and the next append lands on a
    clean boundary. A mid-file flipped bit (disk corruption rather than
    a torn write) costs everything from that record on: acceptable for a
    cache, where a lost entry is a recomputation, not an error.

    A whole, valid record whose input hash predates the stable request
    digest (no flag bit 32, see {!Frame.decode_memo_entry}) can never
    match a current key: it is skipped and counted, not served and not
    a reason to truncate. The magic stays ["PNAMEMO1"] — an unrecognized
    magic would restart the file empty. *)

module Service = Pna_service.Service

let file_magic = "PNAMEMO1"
let max_record = 1_048_576 (* a sane-length ceiling, far above any entry *)

type t = {
  fd : Unix.file_descr;
  mutex : Mutex.t;  (** appends come from any worker domain *)
  mutable closed : bool;
}

type opened = {
  log : t;
  entries : Service.memo_entry list;
      (** valid records with a stable digest, file order *)
  skipped : int;  (** valid records without one, not preloaded *)
  torn_bytes : int;  (** bytes truncated off the tail (0 = clean) *)
}

let le32 v =
  let v = v land 0xffffffff in
  String.init 4 (fun k -> Char.chr ((v lsr (8 * k)) land 0xff))

let rd32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

(* Read the longest valid prefix: (entries, skipped, valid_length,
   had_magic). *)
let scan path =
  match open_in_bin path with
  | exception Sys_error _ -> ([], 0, 0, false)
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let file_len = in_channel_length ic in
    let header = Bytes.create (String.length file_magic) in
    (match really_input ic header 0 (Bytes.length header) with
    | () -> ()
    | exception End_of_file -> ());
    if Bytes.to_string header <> file_magic then ([], 0, 0, false)
    else begin
      let entries = ref [] and skipped = ref 0 in
      let valid = ref (String.length file_magic) in
      let stop = ref false in
      while not !stop do
        let hdr = Bytes.create 8 in
        match really_input ic hdr 0 8 with
        | exception End_of_file -> stop := true
        | () ->
          let hdr = Bytes.to_string hdr in
          let len = rd32 hdr 0 and crc = rd32 hdr 4 in
          if len < 0 || len > max_record || !valid + 8 + len > file_len then
            stop := true
          else begin
            let payload = Bytes.create len in
            match really_input ic payload 0 len with
            | exception End_of_file -> stop := true
            | () ->
              let payload = Bytes.to_string payload in
              if Crc32.string payload <> crc then stop := true
              else
                (match Frame.decode_memo_entry payload with
                | Error _ -> stop := true
                | Ok (e, stable) ->
                  if stable then entries := e :: !entries else incr skipped;
                  valid := !valid + 8 + len)
          end
      done;
      (List.rev !entries, !skipped, !valid, true)
    end

let open_log path =
  let entries, skipped, valid, had_magic = scan path in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let torn_bytes =
    if had_magic then begin
      let size = (Unix.fstat fd).Unix.st_size in
      if size > valid then Unix.ftruncate fd valid;
      size - valid
    end
    else begin
      (* new or unrecognizable file: start fresh *)
      let size = (Unix.fstat fd).Unix.st_size in
      Unix.ftruncate fd 0;
      ignore (Unix.lseek fd 0 Unix.SEEK_SET);
      let m = Bytes.of_string file_magic in
      ignore (Unix.write fd m 0 (Bytes.length m));
      size
    end
  in
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  let log = { fd; mutex = Mutex.create (); closed = false } in
  { log; entries; skipped; torn_bytes }

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let append t entry =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) @@ fun () ->
  if t.closed then invalid_arg "Memolog.append: log is closed";
  let payload = Frame.encode_memo_entry entry in
  (* one write per record: either the whole record lands or the tail is
     torn — recovery handles both *)
  write_all t.fd (le32 (String.length payload) ^ le32 (Crc32.string payload) ^ payload)

let close t =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) @@ fun () ->
  if not t.closed then begin
    t.closed <- true;
    Unix.close t.fd
  end

let entry_key (e : Service.memo_entry) =
  ( e.Service.me_attack,
    e.Service.me_config,
    e.Service.me_chaos_seed,
    e.Service.me_input_hash,
    e.Service.me_sanitize )

(* Offline compaction: drop duplicate keys, keeping the FIRST record per
   key — the in-memory cache is first-writer-wins, so the first record
   is the one that was ever served — and drop records without a stable
   digest, which no key can reach. The compacted log is written beside
   the original and renamed over it, so a crash mid-compaction leaves
   either the old or the new file, both valid. *)
let compact path =
  let entries, skipped, _, _ = scan path in
  let seen = Hashtbl.create 256 in
  let kept =
    List.filter
      (fun e ->
        let k = entry_key e in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      entries
  in
  let tmp = path ^ ".compact" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  write_all fd file_magic;
  List.iter
    (fun e ->
      let payload = Frame.encode_memo_entry e in
      write_all fd
        (le32 (String.length payload) ^ le32 (Crc32.string payload) ^ payload))
    kept;
  Unix.close fd;
  Unix.rename tmp path;
  (List.length kept, List.length entries - List.length kept + skipped)
