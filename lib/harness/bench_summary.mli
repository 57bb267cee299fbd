(** The benchmark matrix in [BENCH_summary.json].

    [collect] measures every engine and workload — PERSEAS at 1, 2 and
    3 mirrors, then each single-node baseline — plus three PERSEAS
    cells outside that matrix.  All numbers are deterministic virtual
    time, so the committed file is the baseline: CI regenerates it and
    fails on any byte that differs.  A change that means to move a
    number commits the regenerated file; the diff of a cell's line
    names the quantity (and, for eager PERSEAS cells, the phase) that
    moved.  Each cell carries only the quantities it measured. *)

(** What a cell measured. *)
type metrics =
  | Latency of { tps : float; mean_us : float; p99_us : float }
      (** A {!Measure.run} over single transactions: throughput and
          per-transaction latency. *)
  | Throughput of { tps : float }
      (** Group-commit and sharded cells, where commit returns before
          its batch propagates and per-transaction latency is
          undefined. *)
  | Recovery of { recovery_us : float }
      (** Virtual time to rebuild the database after a primary crash. *)

type entry = {
  engine : string;
  workload : string;
  mirrors : int;  (** 0 for single-node baselines *)
  metrics : metrics;
  pkts_per_txn : float option;
      (** PERSEAS transaction cells only: SCI packets (64 B + 16 B) per
          transaction over the warmup + measured window. *)
  phase_p99 : (string * float) list;
      (** PERSEAS eager cells only: p99 virtual microseconds per [txn]
          phase over the same window, from a live {!Trace.Tail}; [[]]
          elsewhere. *)
}

val collect : unit -> entry list
(** Run the full matrix, a fresh testbed per cell, then:
    - ["PERSEAS-c8"]: {!Experiments.concurrency_cell} at 8 clients and
      one mirror ([Throughput], packets/txn);
    - ["PERSEAS-ckpt"]: a checkpointed debit-credit database loses its
      primary and is rebuilt on the checkpoint target's node from the
      slot plus the mirror tail ([Recovery]);
    - ["PERSEAS-s4"]: 4 shards at one mirror, 5% cross-shard
      ([Throughput], packets/txn). *)

val to_json : entry list -> string
(** Schema [perseas-bench-summary/2]: one line per cell, with [tps],
    [mean_us] and [p99_us] for [Latency], [tps] for [Throughput] and
    [recovery_us] for [Recovery]; [pkts_per_txn] and [phase_p99_us]
    only when present. *)

val write : path:string -> entry list -> unit
