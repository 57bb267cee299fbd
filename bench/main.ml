(* Benchmark harness entry point: regenerates every table and figure of
   the paper's evaluation (see DESIGN.md's experiment index).

   Usage:
     dune exec bench/main.exe                 # all experiments + BENCH_latency.json
     dune exec bench/main.exe -- fig6 table1  # a subset
     dune exec bench/main.exe -- --list
     dune exec bench/main.exe -- --latency    # BENCH_latency.json only
     dune exec bench/main.exe -- --bechamel   # wall-clock micro-benches
     dune exec bench/main.exe -- --all        # engine x workload matrix -> BENCH_summary.json

   Every number is deterministic virtual time: a refactor regenerates
   BENCH_summary.json, BENCH_latency.json and results/ byte-identical. *)

let list_experiments () =
  print_endline "Available experiments:";
  List.iter
    (fun (name, descr, _) -> Printf.printf "  %-18s %s\n" name descr)
    Harness.Experiments.names

(* Machine-readable latency baseline for future perf PRs: virtual tps
   and per-phase mean latency of the standard mixes on one mirror. *)
let bench_latency ?(path = "BENCH_latency.json") () =
  let str s = "\"" ^ Trace.json_escape s ^ "\"" in
  let entries =
    List.map
      (fun mix ->
        let tail = Trace.Tail.create () in
        let r, _sink =
          Harness.Experiments.traced_run ~tail ~mix ~mirrors:1 ~warmup:200 ~iters:2000 ()
        in
        let phases =
          String.concat ", "
            (List.map
               (fun (p : Trace.phase_stat) -> Printf.sprintf "%s: %.4f" (str p.phase) p.mean_us)
               r.Harness.Measure.phases)
        in
        let phase_p99 =
          String.concat ", "
            (List.map
               (fun (name, p) -> Printf.sprintf "%s: %.4f" (str name) p)
               (Trace.Tail.phase_p99s tail))
        in
        Printf.sprintf
          "  %s: { \"tps\": %.1f, \"mean_us\": %.4f, \"p99_us\": %.4f, \"phase_mean_us\": { %s }, \
           \"phase_p99_us\": { %s } }"
          (str (Harness.Experiments.mix_label mix))
          r.Harness.Measure.tps r.Harness.Measure.mean_us r.Harness.Measure.p99_us phases phase_p99)
      Harness.Experiments.latency_mixes
  in
  let oc = open_out path in
  output_string oc ("{\n" ^ String.concat ",\n" entries ^ "\n}\n");
  close_out oc;
  Printf.printf "wrote %s\n" path

(* The benchmark matrix, written at the repo root where it is
   committed as the baseline; a cell prints "-" for a column it did not
   measure. *)
let bench_all ?(path = "BENCH_summary.json") () =
  let module B = Harness.Bench_summary in
  let module Tb = Harness.Table in
  let entries = B.collect () in
  B.write ~path entries;
  let header =
    [ "engine"; "workload"; "mirrors"; "tps"; "mean (us)"; "p99 (us)"; "recovery (us)" ]
  in
  let rows =
    List.map
      (fun (e : B.entry) ->
        [
          e.engine;
          e.workload;
          (if e.mirrors = 0 then "-" else string_of_int e.mirrors);
        ]
        @
        match e.metrics with
        | B.Latency { tps; mean_us; p99_us } ->
            [ Tb.fmt_tps tps; Tb.fmt_us mean_us; Tb.fmt_us p99_us; "-" ]
        | B.Throughput { tps } -> [ Tb.fmt_tps tps; "-"; "-"; "-" ]
        | B.Recovery { recovery_us } -> [ "-"; "-"; "-"; Tb.fmt_us recovery_us ])
      entries
  in
  Tb.print ~title:"Benchmark summary (virtual time, deterministic)" ~header rows;
  Printf.printf "wrote %s (%d cells)\n" path (List.length entries)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [] ->
      Harness.Experiments.all ();
      bench_latency ();
      print_endline "\nAll experiments done; CSVs are under results/."
  | [ "--list" ] -> list_experiments ()
  | [ "--latency" ] -> bench_latency ()
  | [ "--bechamel" ] -> Bechamel_suite.run ()
  | [ "--all" ] -> bench_all ()
  | names ->
      List.iter
        (fun name ->
          match
            List.find_opt (fun (n, _, _) -> n = name) Harness.Experiments.names
          with
          | Some (_, _, run) -> run ()
          | None ->
              Printf.eprintf "unknown experiment %S (try --list)\n" name;
              exit 2)
        names
