(* ipdb benchmark runner.

   perfbench.exe --workload certify|kb-query|serve-mixed --seed N
     --seconds S --trace 0|1 --spec BENCHMARK.json --ipdb PATH --work DIR
     [--rev REV] [--fs FS]

   --trace 0 measures the end-to-end metrics with tracing and metrics
   off. --trace 1 is the separate traced run: an untraced half and a
   traced half, the deterministic counts, and the fold of the trace into
   per-layer self time. Either way the last stdout line is the summary
   {"correct", "attempted", "failed", "metrics"} over the metrics the
   spec (BENCHMARK.json) lists; the full record is written under
   DIR/results. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spec = ref "BENCHMARK.json" and ipdb = ref "" and work = ref ".perfbench" in
  let rev = ref "unknown" and fs = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME certify, kb-query or serve-mixed");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or the traced run");
      ("--spec", Arg.Set_string spec, "FILE BENCHMARK.json: the metrics and their units");
      ("--ipdb", Arg.Set_string ipdb, "PATH the ipdb executable (serve-mixed)");
      ("--work", Arg.Set_string work, "DIR scratch, trace and result directory");
      ("--rev", Arg.Set_string rev, "REV source revision, for the record");
      ("--fs", Arg.Set_string fs, "FS filesystem of the work directory, for the record");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  let traced = !trace = 1 in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sub d =
    let p = Filename.concat !work d in
    if not (Sys.file_exists p) then Sys.mkdir p 0o755;
    p
  in
  if not (Sys.file_exists !work) then Sys.mkdir !work 0o755;
  let tmp = sub "tmp" and results = sub "results" and traces = sub "traces" in
  let host = { Report.rev = !rev; fs = !fs; flush = "fsync per journal append and kb write (as shipped)" } in
  let spec = Report.load_spec !spec in
  let report = Report.create ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced ~host ~spec in
  let seconds = !seconds and seed = !seed in
  let cpu0 = Probe.host_cpu () and calib0 = Probe.calibration_ms () in
  let phase =
    match (!workload, traced) with
    | "certify", false -> Certify.run_untraced report ~tmp ~seed ~seconds ~setups:9; None
    | "certify", true -> Some (Certify.run_traced report ~tmp ~seed ~seconds)
    | "kb-query", false -> Kb_query.run_untraced report ~tmp ~seed ~seconds ~setups:5; None
    | "kb-query", true -> Some (Kb_query.run_traced report ~tmp ~seed ~seconds)
    | "serve-mixed", false -> Serve_mixed.run_untraced report ~ipdb:!ipdb ~tmp ~seed ~seconds ~setups:15; None
    | "serve-mixed", true -> Some (Serve_mixed.run_traced report ~ipdb:!ipdb ~tmp ~seed ~seconds)
    | w, _ ->
        prerr_endline ("perfbench: unknown workload " ^ w);
        exit 2
  in
  Probe.remove_tree tmp;
  (match phase with
  | None -> ()
  | Some p ->
      List.iter
        (fun (suffix, lines) -> Probe.write_lines (Filename.concat traces (!workload ^ suffix ^ ".jsonl")) lines)
        p.Spans.files;
      Report.metric report "trace.coverage" (Stats.ratio p.Spans.covered p.Spans.denom);
      List.iter
        (fun (l, self) -> Report.metric report ("self_share." ^ l) (Stats.ratio self p.Spans.denom))
        p.Spans.self);
  (* Shares of host CPU time stolen by the hypervisor and waiting on I/O
     during the run, and the host's speed before and after: they explain
     a run that reads slow. *)
  let cpu = Probe.host_cpu () in
  let (total0, iowait0, _), (total, iowait, _) = (cpu0, cpu) in
  Report.metric report "host.steal_share" (Probe.steal_share cpu0 cpu);
  Report.metric report "host.iowait_share" (Stats.ratio (iowait -. iowait0) (total -. total0));
  Report.samples report "host.calibration_ms" [ calib0; Probe.calibration_ms () ];
  Report.metric report "failed_share"
    (Stats.ratio (float_of_int report.Report.failed) (float_of_int (max 1 report.Report.attempted)));
  let path = Filename.concat results (Printf.sprintf "%s-seed%d-trace%d.json" !workload seed !trace) in
  Report.finish report ~path
