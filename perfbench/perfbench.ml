(* The repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
               --pna PATH [--commit ID] [--inject-mismatch]

   Sets up the workload, measures it for S seconds, checks every reply
   against an in-process reference and prints a summary, a provenance
   line and, last, one JSON result line. With --trace 0 the result holds
   the end-to-end metrics; with --trace 1 it holds the per-layer ledger
   instead (Ledger). Exits 1 on any correctness failure, 2 on bad usage. *)

let t_process = Util.now ()

let usage () =
  prerr_endline
    "usage: perfbench --workload wire_hit|wire_miss|matrix_batch \
     --seed N --seconds S --trace 0|1 --pna PATH [--commit ID] [--inject-mismatch]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | "--inject-mismatch" :: rest -> parse (("inject", "1") :: acc) rest
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let name = get "workload" in
  let run_workload = match List.assoc_opt name Workload.all with Some f -> f | None -> usage () in
  let seed = int "seed" and seconds = int "seconds" and trace = int "trace" in
  let pna = get "pna" in
  let commit = Option.value ~default:"unknown" (List.assoc_opt "commit" opts) in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  let out_dir = ".bench_out" in
  let tmp = Filename.concat out_dir (Fmt.str "%s-%d-%d" name seed (Unix.getpid ())) in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir tmp 0o755;
  let ctx =
    {
      Workload.pna;
      tmp;
      seed;
      seconds = float_of_int seconds;
      nproc = Domain.recommended_domain_count ();
      inject_mismatch = List.mem_assoc "inject" opts;
      t_process;
    }
  in
  let r = run_workload ctx in
  let e2e =
    [
      Util.metric "ops_per_s" "1/s"
        (Util.slice_rate ~span:r.Workload.timed_s r.Workload.done_s);
      Util.metric "latency_p50_ms" "ms"
        (Util.slice_median ~span:r.Workload.timed_s ~at:r.Workload.lat_at_s r.Workload.lat_ms);
      Util.metric "latency_p99_ms" "ms" (Util.percentile r.Workload.lat_ms 0.99);
      Util.metric "setup_s" "s" (Util.median r.Workload.setup_s);
      Util.metric "max_rss_mb" "MB" r.Workload.rss_mb;
    ]
  in
  let metrics =
    if trace = 0 then e2e
    else
      Ledger.run ~ctx
        ~spans_out:(Filename.concat out_dir (Fmt.str "spans-%s-%d.tsv" name seed))
        r.Workload.ledger ~workload_counters:r.Workload.counters
  in
  r.Workload.stop ();
  Array.iter (fun f -> Sys.remove (Filename.concat tmp f)) (Sys.readdir tmp);
  Unix.rmdir tmp;
  let checks_ok = List.for_all snd r.Workload.checks in
  let correct = r.Workload.failed = 0 && checks_ok in
  Fmt.pr "%s seed %d: %d operations in %.2f s (%s)@." name seed r.Workload.attempted
    r.Workload.timed_s r.Workload.samples_note;
  List.iter
    (fun m -> Fmt.pr "  %-32s %14.6g %s@." m.Util.m_name m.Util.m_value m.Util.m_unit)
    (if trace = 0 then e2e else e2e @ metrics);
  Fmt.pr "  latency samples %d, set-ups [%s] s@." (Array.length r.Workload.lat_ms)
    (String.concat "; " (Array.to_list (Array.map (Fmt.str "%.3f") r.Workload.setup_s)));
  Fmt.pr "  fail_ratio %g (%d/%d)@."
    (float_of_int r.Workload.failed /. float_of_int (max 1 r.Workload.attempted))
    r.Workload.failed r.Workload.attempted;
  List.iter (fun (c, ok) -> if not ok then Fmt.pr "  check failed: %s@." c) r.Workload.checks;
  Fmt.pr "provenance %s@."
    (Util.json_obj
       [
         ("workload", Util.json_string name);
         ("seed", string_of_int seed);
         ("seconds", string_of_int seconds);
         ("trace", string_of_int trace);
         ("nproc", string_of_int ctx.Workload.nproc);
         ("ocaml", Util.json_string Sys.ocaml_version);
         ( "engine",
           Util.json_string (Pna_attacks.Driver.engine_name Pna_attacks.Driver.env_engine) );
         ("sanitize_default", string_of_bool Pna_attacks.Driver.env_sanitize);
         ("telemetry", string_of_bool (Pna_telemetry.Switch.enabled ()));
         ("server_jobs", string_of_int (Workload.server_jobs ctx));
         ("server_loops", "1");
         ("commit", Util.json_string commit);
       ]);
  print_endline
    (Util.result_line ~correct ~attempted:(max 1 r.Workload.attempted)
       ~failed:r.Workload.failed metrics);
  exit (if correct then 0 else 1)
