(* The two-clock benchmark.  Usage (from the repository root):

     bash perfbench/run.sh --workload dc-eager --seed 1 --seconds 15 --trace 0

   Prints a run manifest, the metrics one per line, and as its last
   line one JSON object {correct, attempted, failed, metrics}: the
   end-to-end metrics with --trace 0, the per-layer ones with
   --trace 1.  Exits 1 when a correctness or determinism check fails. *)

open Perfbench
module B = Bench

let usage () =
  prerr_endline
    "usage: main.exe --workload dc-eager|dc-group8|recover-2m --seed N --seconds S --trace 0|1";
  exit 2

type args = { workload : B.workload; seed : int; seconds : float; trace : bool }

let parse argv =
  let rec go acc = function
    | [] -> acc
    | "--workload" :: w :: rest -> (
        match B.workload_of_string w with Some w -> go (`W w :: acc) rest | None -> usage ())
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with Some n -> go (`Seed n :: acc) rest | None -> usage ())
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some s when s > 0. -> go (`Seconds s :: acc) rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> go (`Trace (t = "1") :: acc) rest
    | _ -> usage ()
  in
  let opts = go [] argv in
  let find f = match List.find_map f opts with Some v -> v | None -> usage () in
  {
    workload = find (function `W w -> Some w | _ -> None);
    seed = find (function `Seed n -> Some n | _ -> None);
    seconds = find (function `Seconds s -> Some s | _ -> None);
    trace =
      Option.value ~default:false (List.find_map (function `Trace t -> Some t | _ -> None) opts);
  }

(* Beds set up per run; [setup_s] is their median. *)
let setups = 9

(* Tail recoveries of the reference bed A, compared with bed B's first. *)
let ref_tail = 3

(* ------------------------------------------------------------------ *)
(* Output *)

let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_str s = Printf.sprintf "%S" s

let ints_json xs = "[" ^ String.concat ", " (List.map string_of_int xs) ^ "]"

(* Digest of the library sources, so a run from a checkout without git
   history still names the code it measured. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
           else [])
  in
  if Sys.file_exists "lib" && Sys.is_directory "lib" then
    Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file (files "lib"))))
  else "unknown"

let () =
  let args = parse (List.tl (Array.to_list Sys.argv)) in
  let shape = B.shape args.workload in
  let module Pl = B.Make (Layers.Plain) in
  let module Tr = B.Make (Layers.Timed) in
  let setup_only () =
    if args.trace then Tr.setup_only shape ~seed:args.seed else Pl.setup_only shape ~seed:args.seed
  in
  (* The set-up-only beds go first, so beds A and B both start from a
     process heap that has already grown.  Bed A always runs untraced:
     the determinism reference and, in a traced run, the untraced host
     time the overhead is measured against. *)
  let mid = List.init (setups - 2) (fun _ -> setup_only ()) in
  let a = Pl.bed_run shape ~seed:args.seed ~tail:(min ref_tail shape.tail_recoveries) () in
  let host = args.seconds in
  let b =
    let tail = shape.tail_recoveries in
    if args.trace then Tr.bed_run shape ~seed:args.seed ~host ~tail ()
    else Pl.bed_run shape ~seed:args.seed ~host ~tail ()
  in
  (* Determinism: bed B must repeat bed A exactly.  A traced bed B
     allocates in its timing wrapper, so words are compared only when
     both are untraced. *)
  let words = not args.trace in
  let diffs =
    B.digest_diff
      (B.digest ~words a.det ~checksums:a.det_checksums)
      (B.digest ~words b.det ~checksums:b.det_checksums)
    @ B.digest_diff (B.tail_digest ~k:ref_tail a.tail) (B.tail_digest ~k:ref_tail b.tail)
  in
  List.iter (fun d -> Printf.eprintf "determinism check failed: %s\n" d) diffs;
  let failed =
    a.window.failed + a.tail.failed + b.window.failed + b.tail.failed
    + List.fold_left (fun acc (_, f) -> acc + f) 0 mid
  in
  let attempted = a.window.attempts + a.tail.attempts + b.window.attempts + b.tail.attempts in
  let correct = failed = 0 && diffs = [] in
  let setup_ns = a.times :: List.map fst mid @ [ b.times ] in
  let med_ns f = B.median (List.map (fun t -> float_of_int (f t)) setup_ns) in
  let det = b.det and win = b.window in
  let recoveries_virt = B.to_list det.rec_virt @ B.to_list b.tail.rec_virt in
  let n_rec = det.rec_virt.n + b.tail.rec_virt.n in
  let rounds =
    let rec triples = function n :: ns :: r :: rest -> (n, ns, r) :: triples rest | _ -> [] in
    triples (B.to_list win.rounds)
  in
  (* Host times, raw and read against the reference kernels. *)
  let rate (n, ns, _) = float_of_int n *. 1e9 /. float_of_int ns in
  let rate_norm (n, ns, ref_ns) = float_of_int n *. 1e9 /. B.normalize ~ns ~ref_ns in
  let rec_pairs =
    List.combine
      (B.to_list win.rec_host @ B.to_list b.tail.rec_host)
      (B.to_list win.rec_ref @ B.to_list b.tail.rec_ref)
  in
  let setup_norm t = B.normalize ~ns:t.B.setup_ns ~ref_ns:t.B.ref_ns in
  let refs = List.map (fun (_, _, r) -> float_of_int r) rounds in
  let lat_us = List.map (fun ns -> float_of_int ns /. 1e3) (B.to_list det.lat) in
  let e2e =
    [
      ("txn_per_host_s", B.median (List.map rate_norm rounds), "txn/s");
      ("alloc_words_per_txn", B.per det.words det.committed, "words/txn");
      ("peak_rss_mb", float_of_int (Hostclock.peak_rss_kb ()) /. 1024., "MB");
      ("setup_s", B.median (List.map setup_norm setup_ns) /. 1e9, "s");
      ( "recover_host_ms_p50",
        B.median (List.map (fun (ns, ref_ns) -> B.normalize ~ns ~ref_ns) rec_pairs) /. 1e6,
        "ms" );
      ("virt_tps", float_of_int det.committed /. Sim.Time.to_s det.virt, "txn/virt_s");
      ("pkts_per_txn", B.per (det.nic_txn.p64 + det.nic_txn.p16) det.committed, "pkts/txn");
      ("recover_virt_ms", B.mean (List.map float_of_int recoveries_virt) /. 1e6, "virt_ms");
    ]
  in
  (* Per-layer: self time per call of each timed layer, over bed B's
     deterministic window, host window and recovery tail. *)
  let acc_of name = List.find (fun (a : Layers.acc) -> a.name = name) (Layers.all ()) in
  let per_call name f = let a = acc_of name in B.per (f a) a.calls in
  let ns name = per_call name (fun a -> a.Layers.ns) in
  let words_of name = per_call name (fun a -> a.Layers.words) in
  let window_layers = b.window_layers in
  let layer_ns = List.fold_left (fun acc (_, _, ns, _) -> acc + ns) 0 window_layers in
  let committed = win.committed in
  let self_ns names =
    List.fold_left
      (fun acc (n, _, ns, _) -> if List.mem n names then acc + ns else acc)
      0 window_layers
  in
  let callbacks = self_ns [ "harness.prepare"; "harness.declare"; "harness.apply" ] in
  let driver = self_ns [ "core.commit_flush" ] in
  let gc0 = b.gc0 and gc1 = b.gc1 in
  let rec_bytes = det.nic_rec.read + b.tail.nic_rec.read in
  let rec_resync = det.resync_bytes + b.tail.resync_bytes in
  let host_per_txn (r : B.result) = B.per r.det.host_ns r.det.committed in
  let phase p = ("virt." ^ p ^ "_mean_us", B.phase_mean p, "virt_us") in
  let layers =
    [
      ("core.begin_ns", ns "core.begin", "ns");
      ("core.set_range_ns", ns "core.set_range", "ns");
      ("core.set_range_words", words_of "core.set_range", "words");
      ("core.write_ns", ns "core.write", "ns");
      ("core.read_ns", ns "core.read", "ns");
      ("core.commit_ns", ns "core.commit", "ns");
      ("core.commit_words", words_of "core.commit", "words");
      ("core.commit_flush_ns_per_txn", B.per driver committed, "ns/txn");
      ("core.batch_txns", (if det.flushes = 0 then 1. else B.per det.group_txns det.flushes), "txn");
      ("core.conflict_ratio", B.per det.conflicts det.attempts, "ratio");
      ("core.undo_bytes_per_txn", B.per det.undo_bytes det.committed, "bytes/txn");
      ("core.elided_undo_ratio", B.per det.elided_bytes (det.elided_bytes + det.undo_bytes), "ratio");
      ("core.recover_ns", ns "core.recover", "ns");
      ("core.recover_words", words_of "core.recover", "words");
      ("core.resync_bytes_per_recovery", B.per rec_resync n_rec, "bytes");
      ("cluster.create_ms", med_ns (fun t -> t.B.create_ns) /. 1e6, "ms");
      ("cluster.crash_ms", ns "cluster.crash" /. 1e6, "ms");
      ("cluster.restart_ms", ns "cluster.restart" /. 1e6, "ms");
      ("harness.callbacks_ns_per_txn", B.per callbacks committed, "ns/txn");
      ("harness.window_ns_per_txn", B.per win.host_ns committed, "ns/txn");
      ("harness.residual_ns_per_txn", B.per (win.host_ns - layer_ns) committed, "ns/txn");
      ("virt.txn_p50_us", B.percentile lat_us 50., "virt_us");
      ("virt.txn_p999_us", B.percentile lat_us 99.9, "virt_us");
      ("sci.pkts64_per_txn", B.per det.nic_txn.p64 det.committed, "pkts/txn");
      ("sci.pkts16_per_txn", B.per det.nic_txn.p16 det.committed, "pkts/txn");
      ("sci.bursts_per_txn", B.per det.nic_txn.bursts det.committed, "bursts/txn");
      ("sci.bytes_written_per_txn", B.per det.nic_txn.written det.committed, "bytes/txn");
      ("sci.bytes_read_per_recovery", B.per rec_bytes n_rec, "bytes");
    ]
    @ List.map phase
        [
          "begin";
          "set_range";
          "local_undo";
          "remote_undo";
          "in_place_write";
          "commit";
          "commit_propagate";
          "commit_fence";
          "probe";
          "repair";
          "fetch_db";
          "resync_mirrors";
        ]
    @ [
        ( "gc.minor_collections_per_ktxn",
          B.per (gc1.minor_collections - gc0.minor_collections) committed *. 1000.,
          "1/ktxn" );
        ( "gc.promoted_words_per_txn",
          (gc1.promoted_words -. gc0.promoted_words) /. float_of_int (max 1 committed),
          "words/txn" );
        ("gc.major_collections", float_of_int (gc1.major_collections - gc0.major_collections), "count");
        ("gc.top_heap_mb", float_of_int (gc1.top_heap_words * (Sys.word_size / 8)) /. 1048576., "MB");
        ("workloads.load_s", med_ns (fun t -> t.B.load_ns) /. 1e9, "s");
        ("trace.overhead_pct", 100. *. ((host_per_txn b /. host_per_txn a) -. 1.), "%");
      ]
  in
  let metrics = if args.trace then layers else e2e in
  (* Manifest: what it takes to reproduce this run. *)
  let c = shape.B.config in
  let manifest =
    [
      ("revision", json_str (Option.value (Sys.getenv_opt "PERFBENCH_REV") ~default:"unknown"));
      ("source_digest", json_str (source_digest ()));
      ("workload", json_str (B.workload_name args.workload));
      ("seed", string_of_int args.seed);
      ("trace", string_of_bool args.trace);
      ( "config",
        Printf.sprintf
          "{\"mirrors\": %d, \"clients\": %d, \"group_commit\": %d, \"dirty_log_limit\": %d, \
           \"redundancy_elision\": %b, \"accounts\": %d, \"branches\": %d}"
          shape.mirrors shape.clients c.group_commit c.dirty_log_limit c.redundancy_elision
          (shape.params.scale * shape.params.accounts_per_branch)
          shape.params.scale );
      ("host_clock", json_str "CLOCK_PROCESS_CPUTIME_ID");
      ("ocaml", json_str Sys.ocaml_version);
      ("window_host_s", num (float_of_int win.host_ns /. 1e9));
      ("reference_nominal_ms", num (float_of_int B.nominal_ref_ns /. 1e6));
      ("reference_ms_p50", num (B.median refs /. 1e6));
      ( "raw",
        Printf.sprintf "{\"txn_per_host_s\": %s, \"setup_s\": %s, \"recover_host_ms_p50\": %s}"
          (num (B.median (List.map rate rounds)))
          (num (med_ns (fun t -> t.B.setup_ns) /. 1e9))
          (num (B.median (List.map (fun (ns, _) -> float_of_int ns) rec_pairs) /. 1e6)) );
      ( "samples",
        Printf.sprintf
          "{\"setups\": %d, \"rounds\": %d, \"txn_latencies\": %d, \"recoveries_host\": %d, \
           \"recoveries_virt\": %d, \"window_committed\": %d}"
          (List.length setup_ns) (List.length rounds) det.lat.n (List.length rec_pairs)
          (List.length recoveries_virt) committed );
      ("gc_minor_collections", string_of_int gc1.minor_collections);
      ("gc_major_collections", string_of_int gc1.major_collections);
      ("top_heap_mb", num (float_of_int (gc1.top_heap_words * (Sys.word_size / 8)) /. 1048576.));
      ("determinism", json_str (if diffs = [] then "ok" else "FAILED"));
      ("setup_ns", ints_json (List.map (fun t -> t.B.setup_ns) setup_ns));
      ("recover_virt_ns", ints_json recoveries_virt);
      ("recover_host_ns", ints_json (List.map fst rec_pairs));
      ("recover_ref_ns", ints_json (List.map snd rec_pairs));
    ]
  in
  print_endline
    ("manifest {"
    ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) manifest)
    ^ "}");
  if args.trace then begin
    Printf.printf "host window by layer (self time; %d txns, %.3f s)\n" committed
      (float_of_int win.host_ns /. 1e9);
    List.iter
      (fun (name, calls, ns, _) ->
        if calls > 0 then
          Printf.printf "  %-22s %9d calls %10.0f ns/call %9.0f ns/txn %5.1f%%\n" name calls
            (B.per ns calls) (B.per ns committed)
            (100. *. B.per ns win.host_ns))
      window_layers;
    Printf.printf "  %-22s %46.0f ns/txn %5.1f%%\n" "residual"
      (B.per (win.host_ns - layer_ns) committed)
      (100. *. B.per (win.host_ns - layer_ns) win.host_ns)
  end;
  List.iter (fun (name, v, unit) -> Printf.printf "metric %-32s %s %s\n" name (num v) unit) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
          metrics));
  if not correct then exit 1
