(** The metrics registry: named counters, gauges, and log2-bucketed
    histograms.

    Instruments are keyed by [(name, labels)] and interned on first use,
    so call sites hold the instrument itself and the hot path touches
    only an [Atomic] (counters, gauges) or a short mutex-protected
    bucket update (histograms) — cheap enough that service workers
    count every job straight into the registry. Registries are
    first-class — the {!Service} keeps one per service instance for
    test isolation — and a
    process-wide {!default} registry collects instrumentation from
    layers that have no natural owner (Machine event bridging).

    Histograms bucket observations by [log2]: bucket [i] counts values
    [v] with [2^(i-1) < v <= 2^i] (bucket 0 counts [v <= 1]). That is
    coarse but cheap and needs no a-priori bounds — timings spanning
    nanoseconds to seconds land in < 64 buckets. *)

type labels = (string * string) list

type counter = { c_name : string; c_labels : labels; c_count : int Atomic.t }

type gauge = { g_name : string; g_labels : labels; g_value : float Atomic.t }

type histogram = {
  h_name : string;
  h_labels : labels;
  h_mutex : Mutex.t;
  mutable h_count : int;
  mutable h_sum : float;
  h_buckets : int array; (* 64 log2 buckets *)
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type registry = {
  r_mutex : Mutex.t;
  r_table : (string * labels, instrument) Hashtbl.t;
}

let create () = { r_mutex = Mutex.create (); r_table = Hashtbl.create 64 }

let default = create ()

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let intern reg name labels build select =
  locked reg.r_mutex (fun () ->
      match Hashtbl.find_opt reg.r_table (name, labels) with
      | Some i -> select i
      | None ->
        let i = build () in
        Hashtbl.replace reg.r_table (name, labels) i;
        select i)

let counter ?(labels = []) reg name =
  intern reg name labels
    (fun () ->
      Counter { c_name = name; c_labels = labels; c_count = Atomic.make 0 })
    (function
      | Counter c -> c
      | _ -> invalid_arg (name ^ ": registered with another instrument type"))

let gauge ?(labels = []) reg name =
  intern reg name labels
    (fun () ->
      Gauge { g_name = name; g_labels = labels; g_value = Atomic.make 0. })
    (function
      | Gauge g -> g
      | _ -> invalid_arg (name ^ ": registered with another instrument type"))

let histogram ?(labels = []) reg name =
  intern reg name labels
    (fun () ->
      Histogram
        {
          h_name = name;
          h_labels = labels;
          h_mutex = Mutex.create ();
          h_count = 0;
          h_sum = 0.;
          h_buckets = Array.make 64 0;
        })
    (function
      | Histogram h -> h
      | _ -> invalid_arg (name ^ ": registered with another instrument type"))

(* -- hot-path operations ------------------------------------------- *)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.c_count by)
let count c = Atomic.get c.c_count

let set g v = Atomic.set g.g_value v
let value g = Atomic.get g.g_value

(* Bucket index for [v]: smallest [i] with [v <= 2^i], clamped to
   [0, 62]; bucket 63 is the overflow (+Inf) bucket. *)
let bucket_of v =
  if v <= 1. then 0
  else
    let i = int_of_float (Float.ceil (Float.log2 v)) in
    if i >= 63 then 63 else i

(* Locked without [locked]'s closure: the service observes twice per
   job. Nothing in the critical section can raise. *)
let observe h v =
  let i = bucket_of v in
  Mutex.lock h.h_mutex;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_buckets.(i) <- h.h_buckets.(i) + 1;
  Mutex.unlock h.h_mutex

let hist_count h = locked h.h_mutex (fun () -> h.h_count)
let hist_sum h = locked h.h_mutex (fun () -> h.h_sum)

(* -- snapshots ------------------------------------------------------ *)

type hist_info = {
  hi_count : int;
  hi_sum : float;
  hi_buckets : (float * int) list;
      (** (upper bound, cumulative count) for non-empty prefix; the last
          entry is [(infinity, hi_count)]. *)
}

type info =
  | Counter_info of { name : string; labels : labels; count : int }
  | Gauge_info of { name : string; labels : labels; value : float }
  | Histogram_info of { name : string; labels : labels; hist : hist_info }

let info_name = function
  | Counter_info { name; _ } | Gauge_info { name; _ }
  | Histogram_info { name; _ } ->
    name

let info_labels = function
  | Counter_info { labels; _ } | Gauge_info { labels; _ }
  | Histogram_info { labels; _ } ->
    labels

let hist_snapshot h =
  locked h.h_mutex (fun () ->
      (* highest non-empty bucket bounds the emitted list *)
      let top = ref (-1) in
      Array.iteri (fun i n -> if n > 0 then top := i) h.h_buckets;
      let cumulative = ref 0 in
      let buckets = ref [] in
      for i = 0 to min !top 62 do
        cumulative := !cumulative + h.h_buckets.(i);
        buckets := (Float.pow 2. (float_of_int i), !cumulative) :: !buckets
      done;
      buckets := (Float.infinity, h.h_count) :: !buckets;
      { hi_count = h.h_count; hi_sum = h.h_sum; hi_buckets = List.rev !buckets })

let snapshot reg =
  let items =
    locked reg.r_mutex (fun () ->
        Hashtbl.fold (fun _ i acc -> i :: acc) reg.r_table [])
  in
  let infos =
    List.map
      (function
        | Counter c ->
          Counter_info
            { name = c.c_name; labels = c.c_labels; count = Atomic.get c.c_count }
        | Gauge g ->
          Gauge_info
            { name = g.g_name; labels = g.g_labels; value = Atomic.get g.g_value }
        | Histogram h ->
          Histogram_info
            { name = h.h_name; labels = h.h_labels; hist = hist_snapshot h })
      items
  in
  List.sort
    (fun a b ->
      match compare (info_name a) (info_name b) with
      | 0 -> compare (info_labels a) (info_labels b)
      | c -> c)
    infos

let reset reg =
  locked reg.r_mutex (fun () -> Hashtbl.reset reg.r_table)

(* -- exporters ------------------------------------------------------ *)

let pp_labels ppf = function
  | [] -> ()
  | labels ->
    Fmt.pf ppf "{%a}"
      (Fmt.list ~sep:Fmt.comma (fun ppf (k, v) -> Fmt.pf ppf "%s=%S" k v))
      labels

let pp_bound ppf b =
  if Float.is_finite b then
    if Float.is_integer b then Fmt.pf ppf "%.0f" b else Fmt.pf ppf "%g" b
  else Fmt.string ppf "+Inf"

(* Prometheus text exposition format. HELP lines are omitted (we carry
   no per-metric help strings); TYPE lines are emitted once per metric
   name. *)
let pp_prometheus ppf reg =
  let infos = snapshot reg in
  let last_typed = ref "" in
  let type_line name kind =
    if !last_typed <> name then begin
      Fmt.pf ppf "# TYPE %s %s@." name kind;
      last_typed := name
    end
  in
  List.iter
    (function
      | Counter_info { name; labels; count } ->
        type_line name "counter";
        Fmt.pf ppf "%s%a %d@." name pp_labels labels count
      | Gauge_info { name; labels; value } ->
        type_line name "gauge";
        Fmt.pf ppf "%s%a %g@." name pp_labels labels value
      | Histogram_info { name; labels; hist } ->
        type_line name "histogram";
        List.iter
          (fun (bound, cumulative) ->
            Fmt.pf ppf "%s_bucket%a %d@." name pp_labels
              (labels @ [ ("le", Fmt.str "%a" pp_bound bound) ])
              cumulative)
          hist.hi_buckets;
        Fmt.pf ppf "%s_sum%a %g@." name pp_labels labels hist.hi_sum;
        Fmt.pf ppf "%s_count%a %d@." name pp_labels labels hist.hi_count)
    infos

let to_json reg : Jsonx.t =
  let labels_json labels =
    Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Str v)) labels)
  in
  let item = function
    | Counter_info { name; labels; count } ->
      Jsonx.Obj
        [
          ("name", Jsonx.Str name);
          ("type", Jsonx.Str "counter");
          ("labels", labels_json labels);
          ("value", Jsonx.Int count);
        ]
    | Gauge_info { name; labels; value } ->
      Jsonx.Obj
        [
          ("name", Jsonx.Str name);
          ("type", Jsonx.Str "gauge");
          ("labels", labels_json labels);
          ("value", Jsonx.Float value);
        ]
    | Histogram_info { name; labels; hist } ->
      Jsonx.Obj
        [
          ("name", Jsonx.Str name);
          ("type", Jsonx.Str "histogram");
          ("labels", labels_json labels);
          ("count", Jsonx.Int hist.hi_count);
          ("sum", Jsonx.Float hist.hi_sum);
          ( "buckets",
            Jsonx.List
              (List.map
                 (fun (bound, cumulative) ->
                   Jsonx.Obj
                     [
                       ( "le",
                         if Float.is_finite bound then Jsonx.Float bound
                         else Jsonx.Str "+Inf" );
                       ("count", Jsonx.Int cumulative);
                     ])
                 hist.hi_buckets) );
        ]
  in
  Jsonx.List (List.map item (snapshot reg))
