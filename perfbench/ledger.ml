(* The traced run's per-layer ledger. It walks the workload's own keys
   and genomes through every layer's public calls in process — frame
   codec, CRC, service, driver, compiler, sanitizer, checker, generator,
   memo log — plus window-1 round trips against a live child, wrapping
   each call in a span. The walk runs three times — spans off, on, off —
   which gives the tracing overhead. *)

module R = Pna_rand.Rand
module W = Workload
module Frame = Pna_net.Frame
module Crc32 = Pna_net.Crc32
module Memolog = Pna_net.Memolog
module Service = Pna_service.Service
module Driver = Pna_attacks.Driver
module Catalog = Pna_attacks.Catalog
module Config = Pna_defense.Config
module Genome = Pna_gen.Genome
module Build = Pna_gen.Build
module Oracle = Pna_gen.Oracle
module Fuzz = Pna_gen.Fuzz

let span = Util.span
let rtt_trips = 256
let crc_reps = 64

type walk = {
  mutable frames : string list;
  mutable steps : int;
  mutable runs : int;
  mutable shed : int;
  mutable trips : int;
  mutable svc_stats : Service.stats option;
  mutable rss_grow_mb : float;
}

let frame w msg =
  let enc = span "net.frame_encode" (fun () -> Frame.encode msg) in
  w.frames <- enc :: w.frames;
  ignore (span "net.frame_decode" (fun () -> Frame.decode enc))

let walk_key w svc log i (k : W.key) =
  Util.current_req := i;
  span "ledger.request" @@ fun () ->
  frame w (Frame.Request (W.req_of_key ~corr:i k));
  let job = W.job_of_key ~max_steps:W.max_steps k in
  let miss = span "service.exec_miss" (fun () -> Service.exec svc job) in
  frame w (Frame.Reply_ok { (Frame.rep_of_reply miss) with Frame.rp_corr = i });
  span "net.memolog_append" (fun () ->
      Memolog.append log
        {
          Service.me_attack = k.W.k_attack.Catalog.id;
          me_config = k.W.k_config.Config.name;
          me_chaos_seed = k.W.k_chaos;
          me_input_hash = Hashtbl.hash (W.key_id k);
          me_sanitize = k.W.k_sanitize;
          me_engine = Driver.engine_name Driver.env_engine;
          me_reply = miss;
        });
  let config = k.W.k_config and a = k.W.k_attack and engine = Driver.env_engine in
  let max_steps = W.max_steps in
  let p = span "attacks.prepare" (fun () -> Driver.prepare ~config ~sanitize:false ~engine a) in
  let image = span "attacks.freeze" (fun () -> Driver.freeze p) in
  let replica = span "attacks.thaw" (fun () -> Driver.thaw image) in
  ignore (span "attacks.reset" (fun () -> Driver.reset replica));
  let r = span "attacks.run_prepared" (fun () -> Driver.run_prepared ~max_steps replica) in
  w.steps <- w.steps + r.Driver.outcome.Pna_minicpp.Outcome.steps;
  w.runs <- w.runs + 1;
  let sp = Driver.prepare ~config ~sanitize:true ~engine a in
  ignore (span "sanitizer.run_prepared" (fun () -> Driver.run_prepared ~max_steps sp));
  ignore (span "attacks.run" (fun () -> Driver.run ~config ~max_steps ~sanitize:false ~engine a));
  ignore (span "minicpp.compile" (fun () -> Pna_minicpp.Compile.compile a.Catalog.program));
  ignore
    (span "analysis.checker" (fun () ->
         Pna_analysis.Placement_checker.analyze ~interproc:true a.Catalog.program))

let walk_genomes li =
  List.iter
    (fun (seed, n) ->
      let rng = R.create seed in
      for _ = 1 to n do
        let g = span "gen.generate" (fun () -> Genome.generate rng) in
        ignore (span "gen.build" (fun () -> Build.program_of g));
        ignore (span "gen.oracle" (fun () -> Oracle.run g))
      done)
    li.W.li_genomes

(* Memo hits in process, then over the wire, cycling over the keys in the
   same order: the one-worker service here and the child's see the same
   prepared-cache pattern, so the wire's extra cost is the difference. *)
let hits w svc c keys =
  let n = Array.length keys in
  for j = 0 to rtt_trips - 1 do
    let job = W.job_of_key ~max_steps:W.max_steps keys.(j mod n) in
    ignore (span "service.exec_hit" (fun () -> Service.exec svc job))
  done;
  for j = 0 to rtt_trips - 1 do
    let req = W.req_of_key ~corr:(j + 1) keys.(j mod n) in
    w.trips <- w.trips + 1;
    match span "wire.rtt" (fun () -> Child.round_trip c req) with
    | Some _ -> ()
    | None -> w.shed <- w.shed + 1
  done

let pass ~tmp ~tag li keys c =
  let w =
    { frames = []; steps = 0; runs = 0; shed = 0; trips = 0; svc_stats = None; rss_grow_mb = 0. }
  in
  let svc = Service.create ~jobs:1 () in
  let log = (Memolog.open_log (Filename.concat tmp ("ledger-" ^ tag ^ ".log"))).Memolog.log in
  let rss0 = Util.proc_status_mb Util.self_pid "VmRSS" in
  Array.iteri (walk_key w svc log) keys;
  w.rss_grow_mb <- Util.proc_status_mb Util.self_pid "VmRSS" -. rss0;
  Memolog.close log;
  hits w svc c keys;
  w.svc_stats <- Some (Service.stats svc);
  Service.shutdown svc;
  walk_genomes li;
  let frames = w.frames in
  span "net.crc32" (fun () ->
      for _ = 1 to crc_reps do
        List.iter (fun f -> ignore (Crc32.string f)) frames
      done);
  w

(* self time: a span's duration less its children's *)
let self_by_layer spans =
  let self = Array.map (fun s -> s.Util.sp_end -. s.Util.sp_start) spans in
  Array.iter
    (fun s ->
      if s.Util.sp_parent >= 0 then
        self.(s.Util.sp_parent) <- self.(s.Util.sp_parent) -. (s.Util.sp_end -. s.Util.sp_start))
    spans;
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let l = Util.layer_of s.Util.sp_name in
      Hashtbl.replace tbl l (self.(i) +. Option.value ~default:0. (Hashtbl.find_opt tbl l)))
    spans;
  tbl

let durations_us spans name =
  Array.of_list
    (Array.fold_right
       (fun s acc ->
         if s.Util.sp_name = name then ((s.Util.sp_end -. s.Util.sp_start) *. 1e6) :: acc
         else acc)
       spans [])

let self_layers = [ "net"; "service"; "attacks"; "sanitizer"; "minicpp"; "gen"; "analysis" ]

(* Figures the workload's own loop observed win over the ledger's. *)
let run ~ctx ~spans_out (li : W.ledger_input) ~workload_counters =
  let keys = li.W.li_keys in
  let tmp = ctx.W.tmp in
  (* an in-process workload has no child of its own: start one for the
     round trips (its keys are catalogue scenarios, so no corpus) *)
  let own_child, c =
    match li.W.li_server with
    | Some (_, c) -> (None, c)
    | None ->
      let srv =
        Child.start ~pna:ctx.W.pna ~log:(Filename.concat tmp "ledger-server.log")
          ~jobs:(W.server_jobs ctx) ()
      in
      (Some srv, Child.connect srv)
  in
  (* every key once over the wire, so the round trips below are memo hits *)
  Array.iter (fun k -> ignore (Child.round_trip c (W.req_of_key k))) keys;
  let timed tag =
    let t0 = Util.now () in
    let w = pass ~tmp ~tag li keys c in
    (w, Util.now () -. t0)
  in
  (* untraced passes on both sides of the traced one, so warm-up and
     drift do not land on one side of the overhead ratio *)
  let _, before_s = timed "before" in
  Util.reset_spans ();
  Util.tracing := true;
  let w, traced_s = timed "traced" in
  Util.tracing := false;
  let _, after_s = timed "after" in
  let untraced_s = (before_s +. after_s) /. 2. in
  (* coverage filtering and oracle re-runs only show over a campaign *)
  let draws = List.fold_left (fun a (_, n) -> a + n) 0 li.W.li_genomes in
  let fz = Fuzz.campaign ~n:draws ~seed:ctx.W.seed () in
  Option.iter
    (fun srv ->
      Pna_net.Client.close c;
      Child.stop srv)
    own_child;
  let spans = Util.recorded () in
  Util.write_spans spans_out;
  let us name = durations_us spans name in
  let sum name = Util.sum (us name) in
  let timed_metric name span_name =
    let xs = us span_name in
    [
      Util.metric (name ^ ".p50") "us" (Util.median xs);
      Util.metric (name ^ ".p99") "us" (Util.percentile xs 0.99);
    ]
  in
  let enc = us "net.frame_encode" and dec = us "net.frame_decode" in
  let rtt = us "wire.rtt" and hit = us "service.exec_hit" in
  let frame_bytes = List.fold_left (fun a f -> a + String.length f) 0 w.frames in
  let self = self_by_layer spans in
  let self_total =
    List.fold_left (fun a l -> a +. Option.value ~default:0. (Hashtbl.find_opt self l)) 0. self_layers
  in
  let st = Option.get w.svc_stats in
  let ledger_counters =
    W.server_counters (W.of_service_stats st)
    @ [
        ("net.shed_ratio", float_of_int w.shed /. float_of_int (max 1 w.trips));
        ( "service.rss_per_image_kb",
          w.rss_grow_mb *. 1024. /. float_of_int (max 1 (st.Service.st_fresh_loads + (2 * w.runs))) );
      ]
  in
  let counter name unit =
    let v =
      match List.assoc_opt name workload_counters with
      | Some v -> v
      | None -> List.assoc name ledger_counters
    in
    Util.metric name unit v
  in
  let gen_n = float_of_int (max 1 fz.Fuzz.f_generated) in
  timed_metric "net.frame_encode_us" "net.frame_encode"
  @ timed_metric "net.frame_decode_us" "net.frame_decode"
  @ [ Util.metric "net.crc32_ns_per_byte" "ns" (sum "net.crc32" *. 1e3 /. float_of_int (crc_reps * max 1 frame_bytes)) ]
  @ timed_metric "net.rtt_us" "wire.rtt"
  @ [
      (* a round trip is request encode+decode, reply encode+decode and a
         memo hit; what is left is socket, select loop, admission and pool
         hand-off *)
      Util.metric "net.unattributed_us" "us"
        (Util.median rtt -. (2. *. (Util.median enc +. Util.median dec)) -. Util.median hit);
    ]
  @ timed_metric "net.memolog_append_us" "net.memolog_append"
  @ [ counter "net.shed_ratio" "ratio" ]
  @ timed_metric "service.exec_hit_us" "service.exec_hit"
  @ timed_metric "service.exec_miss_us" "service.exec_miss"
  @ [
      counter "service.queue_wait_us" "us";
      counter "service.memo_hit_ratio" "ratio";
      counter "service.image_local_ratio" "ratio";
      counter "service.rss_per_image_kb" "KiB";
    ]
  @ timed_metric "attacks.prepare_us" "attacks.prepare"
  @ timed_metric "attacks.freeze_us" "attacks.freeze"
  @ timed_metric "attacks.thaw_us" "attacks.thaw"
  @ timed_metric "attacks.reset_us" "attacks.reset"
  @ timed_metric "attacks.run_prepared_us" "attacks.run_prepared"
  @ timed_metric "attacks.run_us" "attacks.run"
  @ [
      Util.metric "minicpp.steps_per_op" "steps" (float_of_int w.steps /. float_of_int (max 1 w.runs));
      Util.metric "minicpp.ns_per_step" "ns" (sum "attacks.run_prepared" *. 1e3 /. float_of_int (max 1 w.steps));
    ]
  @ timed_metric "minicpp.compile_us" "minicpp.compile"
  @ [ Util.metric "sanitizer.run_ratio" "ratio" (sum "sanitizer.run_prepared" /. sum "attacks.run_prepared") ]
  @ timed_metric "gen.generate_us" "gen.generate"
  @ timed_metric "gen.build_us" "gen.build"
  @ timed_metric "gen.oracle_us" "gen.oracle"
  @ [
      Util.metric "gen.oracle_runs_per_scenario" "runs" (float_of_int fz.Fuzz.f_oracle_runs /. gen_n);
      Util.metric "gen.kept_ratio" "ratio" (float_of_int fz.Fuzz.f_kept /. gen_n);
    ]
  @ timed_metric "analysis.checker_us" "analysis.checker"
  @ [ counter "gc.alloc_words_per_op" "words"; counter "gc.major_per_kop" "count" ]
  @ List.map
      (fun l ->
        Util.metric (l ^ ".self_pct") "%"
          (100. *. Option.value ~default:0. (Hashtbl.find_opt self l) /. self_total))
      self_layers
  @ [ Util.metric "trace.overhead_ratio" "ratio" (traced_s /. untraced_s) ]
