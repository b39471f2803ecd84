(* Shared helpers: the monotonic clock, sample buffers and percentiles,
   /proc readings, the span recorder of the traced run, and the result
   line. *)

module Clock = Pna_telemetry.Clock

let now () = Int64.to_float (Clock.now_ns ()) /. 1e9

(* -- samples ----------------------------------------------------------- *)

type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 256 0.; n = 0 }

let push s v =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0. in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- v;
  s.n <- s.n + 1

let to_array s = Array.sub s.a 0 s.n

(* nearest-rank percentile over a copy; 0 samples is a caller bug *)
let percentile xs p =
  let xs = Array.copy xs in
  Array.sort compare xs;
  let n = Array.length xs in
  if n = 0 then invalid_arg "percentile: no samples";
  xs.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs = percentile xs 0.5
let sum xs = Array.fold_left ( +. ) 0. xs

(* Completions per second in each of [slices] equal parts of a window of
   [span] seconds, and their median: a stall in one part of the window
   moves one slice, not the figure. *)
let slice_rate ?(slices = 5) ~span done_s =
  let width = span /. float_of_int slices in
  let counts = Array.make slices 0 in
  Array.iter
    (fun t ->
      let i = min (slices - 1) (max 0 (int_of_float (t /. width))) in
      counts.(i) <- counts.(i) + 1)
    done_s;
  median (Array.map (fun c -> float_of_int c /. width) counts)

(* The median of the samples that completed in each of [slices] equal
   parts of the window ([at] holds when each did), and the median of
   those: as with [slice_rate], a slow stretch of the host in one part
   of the window moves one slice, not the figure. *)
let slice_median ?(slices = 5) ~span ~at xs =
  let width = span /. float_of_int slices in
  let parts = Array.init slices (fun _ -> samples ()) in
  Array.iteri
    (fun i x -> push parts.(min (slices - 1) (max 0 (int_of_float (at.(i) /. width)))) x)
    xs;
  Array.to_list parts
  |> List.filter_map (fun p -> if p.n = 0 then None else Some (median (to_array p)))
  |> Array.of_list |> median

(* -- /proc ------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

(* a "Field:   1234 kB" line of /proc/<pid>/status, in MB *)
let proc_status_mb pid field =
  let prefix = field ^ ":" in
  let plen = String.length prefix in
  String.split_on_char '\n' (read_file (Fmt.str "/proc/%s/status" pid))
  |> List.find_map (fun l ->
         if String.length l > plen && String.sub l 0 plen = prefix then
           Scanf.sscanf (String.sub l plen (String.length l - plen)) " %d"
             (fun kb -> Some (float_of_int kb /. 1024.))
         else None)
  |> Option.value ~default:0.

let self_pid = "self"

(* -- the span recorder of the traced run -------------------------------

   Spans are kept in memory on the main domain (the ledger never spans
   from another domain) and written out when the run ends. With
   [tracing] off, [span] is a branch around the thunk. *)

type span = {
  sp_name : string;
  sp_start : float;
  mutable sp_end : float;
  sp_parent : int;  (** index of the enclosing span, -1 for a root *)
  sp_req : int;  (** request id of the ledger operation *)
}

let tracing = ref false
let spans : span array ref = ref [||]
let n_spans = ref 0
let open_stack : int list ref = ref []
let current_req = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    let id = !n_spans in
    let sp =
      {
        sp_name = name;
        sp_start = now ();
        sp_end = 0.;
        sp_parent = (match !open_stack with p :: _ -> p | [] -> -1);
        sp_req = !current_req;
      }
    in
    if id = Array.length !spans then begin
      let b = Array.make (max 1024 (2 * id)) sp in
      Array.blit !spans 0 b 0 id;
      spans := b
    end;
    !spans.(id) <- sp;
    incr n_spans;
    open_stack := id :: !open_stack;
    Fun.protect
      ~finally:(fun () ->
        sp.sp_end <- now ();
        open_stack := List.tl !open_stack)
      f
  end

let recorded () = Array.sub !spans 0 !n_spans

let reset_spans () =
  n_spans := 0;
  open_stack := []

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let write_spans path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\tparent\treq\tname\tstart_us\tend_us\n";
      Array.iteri
        (fun i s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%.3f\t%.3f\n" i s.sp_parent
            s.sp_req s.sp_name (s.sp_start *. 1e6) (s.sp_end *. 1e6))
        (recorded ()))

(* -- results ------------------------------------------------------------ *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Fmt.str "%.0f" v
  else Fmt.str "%.17g" v

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let result_line ~correct ~attempted ~failed metrics =
  json_obj
    [
      ("correct", string_of_bool correct);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ( "metrics",
        json_obj
          (List.map
             (fun m ->
               ( m.m_name,
                 json_obj
                   [ ("value", json_number m.m_value); ("unit", json_string m.m_unit) ] ))
             metrics) );
    ]
