(* The machine-readable benchmark matrix written to BENCH_summary.json
   at the repo root: every engine x workload cell (PERSEAS at 1-3
   mirrors), plus the group-commit, checkpoint-recovery and sharded
   cells.  All numbers are virtual-time and deterministic, so CI
   regenerates the file and fails on any byte that differs from the
   committed one.  Each cell carries only the quantities it measured. *)

module T = Testbed

type metrics =
  | Latency of { tps : float; mean_us : float; p99_us : float }
  | Throughput of { tps : float }
  | Recovery of { recovery_us : float }

type entry = {
  engine : string;
  workload : string;
  mirrors : int;  (* 0 for single-node baselines *)
  metrics : metrics;
  pkts_per_txn : float option;  (* PERSEAS cells only: NIC packets / txn *)
  phase_p99 : (string * float) list;
      (* PERSEAS eager cells only: p99 virtual us per txn phase from the
         live Trace.Tail histograms. *)
}

let workload_label = function `Debit_credit -> "debit-credit" | `Order_entry -> "order-entry"
let workloads = [ `Debit_credit; `Order_entry ]

(* PERSEAS cells are built from the bed rather than the packed
   instance so the cell can also read the cluster NIC's packet
   counters. *)
let perseas_cell mirrors () =
  let bed = T.replicated_bed ~mirrors () in
  let inst : T.instance =
    (module struct
      module E = Perseas.Engine

      let engine = bed.T.perseas
      let clock = bed.T.clock
      let label = Printf.sprintf "PERSEAS-%dm" mirrors
      let finish () = ()
    end)
  in
  let attach_tail () =
    let tail = Trace.Tail.create () in
    Perseas.set_sink bed.T.perseas (Trace.Tail.sink tail);
    tail
  in
  (inst, Some (Cluster.nic bed.T.cluster), Some attach_tail)

(* Fresh instance per cell — engines accumulate state. *)
let engines =
  [
    ("PERSEAS", 1, perseas_cell 1);
    ("PERSEAS", 2, perseas_cell 2);
    ("PERSEAS", 3, perseas_cell 3);
    ("RVM", 0, fun () -> (T.rvm_instance (), None, None));
    ("RVM-Rio", 0, fun () -> (T.rvm_instance ~rio:true (), None, None));
    ("Vista", 0, fun () -> (T.vista_instance (), None, None));
    ("RemoteWAL", 0, fun () -> (T.remote_wal_instance (), None, None));
  ]

let measure (engine, mirrors, make) workload =
  let inst, nic, attach_tail = make () in
  let iters = if T.label inst = "RVM" then 2_000 else 10_000 in
  let warmup = iters / 10 in
  let tail = ref None in
  (* After setup, so packets/txn and the per-phase histograms cover
     exactly the warmup + measured transactions, not database
     creation. *)
  let after_setup () =
    Option.iter Sci.Nic.reset_counters nic;
    tail := Option.map (fun f -> f ()) attach_tail
  in
  let (r : Measure.result) =
    match workload with
    | `Debit_credit ->
        Experiments.run_debit_credit ~after_setup inst
          ~params:Workloads.Debit_credit.default_params ~warmup ~iters
    | `Order_entry ->
        Experiments.run_order_entry ~after_setup inst ~params:Workloads.Order_entry.default_params
          ~warmup ~iters
  in
  {
    engine;
    workload = workload_label workload;
    mirrors;
    metrics = Latency { tps = r.tps; mean_us = r.mean_us; p99_us = r.p99_us };
    pkts_per_txn =
      Option.map
        (fun n ->
          let c = Sci.Nic.counters n in
          float_of_int (c.Sci.Nic.packets64 + c.Sci.Nic.packets16) /. float_of_int (warmup + iters))
        nic;
    phase_p99 = (match !tail with Some t -> Trace.Tail.phase_p99s t | None -> []);
  }

(* Concurrency cell: the R9 protocol at 8 clients and one mirror.
   Per-transaction latency is not defined under group commit (commit
   returns before the batch propagates), so the cell reports
   throughput and packets only. *)
let concurrency_clients = 8

let concurrent_entry () =
  let c =
    Experiments.concurrency_cell ~mirrors:1 ~clients:concurrency_clients ~warmup:1_000
      ~txns:10_000
  in
  {
    engine = Printf.sprintf "PERSEAS-c%d" concurrency_clients;
    workload = "debit-credit";
    mirrors = c.Experiments.cc_mirrors;
    metrics = Throughput { tps = c.Experiments.cc_tps };
    pkts_per_txn = Some c.Experiments.cc_pkts_per_txn;
    phase_p99 = [];
  }

(* Recovery-time cell: a checkpointed debit-credit database loses its
   primary and is rebuilt on the checkpoint target's node from the slot
   plus the mirror tail. *)
let checkpoint_entry () =
  let clock = Sim.Clock.create () in
  let specs =
    List.mapi
      (fun i n -> Cluster.spec ~dram_size:(64 * 1024 * 1024) ~power_supply:i n)
      [ "primary"; "mirror"; "ckpt"; "spare" ]
  in
  let cluster = Cluster.create ~clock specs in
  let server = Netram.Server.create (Cluster.node cluster 1) in
  let client = Netram.Client.create ~cluster ~local:0 ~server in
  let t = Perseas.init_replicated [ client ] in
  let module W = Workloads.Debit_credit.Make (Perseas.Engine) in
  let rng = Sim.Rng.create 7 in
  let db = W.setup t ~params:Workloads.Debit_credit.default_params in
  let ckpt_server = Netram.Server.create (Cluster.node cluster 2) in
  Perseas.Checkpoint.set_ram_target t ~server:ckpt_server;
  for _ = 1 to 2_000 do
    W.transaction db rng
  done;
  ignore (Perseas.Checkpoint.take t);
  for _ = 1 to 200 do
    W.transaction db rng
  done;
  ignore (Cluster.crash_node cluster 0 Cluster.Failure.Software_error);
  let t0 = Sim.Clock.now clock in
  let t2 =
    Perseas.recover_replicated ~config:(Perseas.config t)
      ~checkpoint:(Perseas.Ram_source ckpt_server) ~cluster ~local:2 ~servers:[ server ] ()
  in
  let recovery_us = Sim.Time.to_us (Sim.Clock.now clock - t0) in
  assert (Perseas.verify_mirrors t2 = []);
  {
    engine = "PERSEAS-ckpt";
    workload = "debit-credit";
    mirrors = 1;
    metrics = Recovery { recovery_us };
    pkts_per_txn = None;
    phase_p99 = [];
  }

(* Sharded cell: 4 shards at one mirror each, 5 cross-shard transfers
   per 100 singles through the single-master phases — the R13 protocol.
   tps is aggregate over the frontier clock; group commit plus phase
   fences leave per-transaction latency undefined, as in the
   concurrency cell. *)
let sharded_shards = 4

let sharded_entry () =
  let params =
    {
      Workloads.Debit_credit.scale = 4;
      accounts_per_branch = 10_000;
      history_slots = 4096;
      skew = Workloads.Debit_credit.Zipf 0.8;
    }
  in
  let cell =
    Sharding.run_cell ~params ~warmup:600 ~total:6_000 ~shards:sharded_shards ~cross_per_100:5 ()
  in
  {
    engine = Printf.sprintf "PERSEAS-s%d" sharded_shards;
    workload = "debit-credit";
    mirrors = 1;
    metrics = Throughput { tps = cell.Sharding.c_tps };
    pkts_per_txn = Some cell.Sharding.c_pkts_per_txn;
    phase_p99 = [];
  }

let collect () =
  List.concat_map (fun e -> List.map (measure e) workloads) engines
  @ [ concurrent_entry (); checkpoint_entry (); sharded_entry () ]

let to_json entries =
  let str s = "\"" ^ Trace.json_escape s ^ "\"" in
  let cell e =
    let metrics =
      match e.metrics with
      | Latency { tps; mean_us; p99_us } ->
          Printf.sprintf "\"tps\": %.1f, \"mean_us\": %.4f, \"p99_us\": %.4f" tps mean_us p99_us
      | Throughput { tps } -> Printf.sprintf "\"tps\": %.1f" tps
      | Recovery { recovery_us } -> Printf.sprintf "\"recovery_us\": %.4f" recovery_us
    in
    let pkts =
      match e.pkts_per_txn with
      | Some p -> Printf.sprintf ", \"pkts_per_txn\": %.2f" p
      | None -> ""
    in
    let phases =
      match e.phase_p99 with
      | [] -> ""
      | ps ->
          Printf.sprintf ", \"phase_p99_us\": { %s }"
            (String.concat ", "
               (List.map (fun (name, p) -> Printf.sprintf "%s: %.4f" (str name) p) ps))
    in
    Printf.sprintf "    { \"engine\": %s, \"workload\": %s, \"mirrors\": %d, %s%s%s }"
      (str e.engine) (str e.workload) e.mirrors metrics pkts phases
  in
  "{\n  \"schema\": \"perseas-bench-summary/2\",\n  \"entries\": [\n"
  ^ String.concat ",\n" (List.map cell entries)
  ^ "\n  ]\n}\n"

let write ~path entries =
  let oc = open_out path in
  output_string oc (to_json entries);
  close_out oc
