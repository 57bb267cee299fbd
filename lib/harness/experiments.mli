(** One function per paper artefact (see DESIGN.md's experiment index).

    Every experiment prints an aligned table to stdout and saves the
    same rows as CSV under [results/].  All numbers are virtual-time
    and deterministic. *)

(** {1 Runners the bench matrix reuses} *)

val run_debit_credit :
  ?after_setup:(unit -> unit) ->
  Testbed.instance ->
  params:Workloads.Debit_credit.params ->
  warmup:int ->
  iters:int ->
  Measure.result
(** Set up debit-credit on the instance, call [after_setup] (default:
    nothing), then {!Measure.run} [warmup] + [iters] transactions drawn
    from seed 7 and assert the TPC-B invariant. *)

val run_order_entry :
  ?after_setup:(unit -> unit) ->
  Testbed.instance ->
  params:Workloads.Order_entry.params ->
  warmup:int ->
  iters:int ->
  Measure.result
(** Same for order-entry, seed 11. *)

type concurrency_cell = {
  cc_mirrors : int;
  cc_clients : int;
  cc_tps : float;
  cc_pkts_per_txn : float;  (** NIC packets (64 B + 16 B) per committed txn. *)
  cc_conflicts : int;
  cc_flushes : int;  (** Group-commit flushes in the measured window. *)
}

val concurrency_cell : mirrors:int -> clients:int -> warmup:int -> txns:int -> concurrency_cell
(** R9's cell: debit-credit (seed 97, 1024 branches) under [clients]
    interleaved clients on a fresh [mirrors]-way testbed, group commit
    of two client rounds (eager at one client).  [warmup] transactions
    run first; tps and packets/txn cover the next [txns]. *)

val fig5 : unit -> unit
(** Figure 5: SCI remote-write latency vs. data size (4–200 B). *)

val fig6 : unit -> unit
(** Figure 6: PERSEAS transaction overhead vs. transaction size
    (4 B – 1 MB). *)

val table1 : unit -> unit
(** Table 1: PERSEAS throughput for debit-credit and order-entry. *)

val compare_synthetic : unit -> unit
(** §5.1 comparison: small synthetic transactions across PERSEAS, RVM,
    RVM-Rio and Vista (the orders-of-magnitude claims). *)

val compare_bench : unit -> unit
(** §5.1 comparison: debit-credit and order-entry across all engines. *)

val db_size_sweep : unit -> unit
(** §5.1 claim: PERSEAS throughput is flat while the database fits in
    main memory. *)

val recovery : unit -> unit
(** §3/§6: crash the primary mid-commit and recover on the spare node
    and on the rebooted primary; reports recovery time vs DB size. *)

val crash_sweep : unit -> unit
(** §3 verified exhaustively: crash at {e every} packet boundary of a
    multi-range commit (primary and mirror victims), of an
    [attach_mirror] resync, and of a concurrent group-commit flush with
    a bystander transaction open across it, and hold recovery to the
    {!Crashpoint} oracle.  Summary table on stdout; per-point rows in
    [results/crash_sweep.csv]. *)

val churn : unit -> unit
(** Self-healing replication under churn: a seeded failure/repair
    process pauses and crashes mirror nodes under a live debit-credit
    load while a {!Perseas.Supervisor} recruits replacements from a
    spare pool.  Enforces the {!Churn} oracle (zero committed-data
    loss) and writes per-window rows to [results/churn.csv]. *)

val copy_counts : unit -> unit
(** Figure 2 vs Figure 3: per-transaction copy and I/O counts for each
    engine (PERSEAS: three memory copies, no disk). *)

val ablation_memcpy : unit -> unit
(** §4 ablation: the 64-byte-aligned [sci_memcpy] optimisation on and
    off. *)

val elision : unit -> unit
(** R8: {!Perseas.config.redundancy_elision} on and off for an
    overlap-heavy synthetic mix and order-entry — packets, undo bytes
    and latency per transaction.  Asserts the acceptance bar: on the
    overlap mix the elided engine logs at least 30% fewer undo bytes
    and plans strictly fewer commit packets.  Writes
    [results/elision.csv]. *)

val group_commit : unit -> unit
(** §6: RVM with group commit (batch sizes 1–64) vs PERSEAS. *)

val remote_wal_load : unit -> unit
(** §2 critique of the remote-memory WAL (Ioanidis et al.): commit
    bursts run at network speed but sustained throughput is bound by
    the background disk writer; PERSEAS stays flat. *)

val replication_degree : unit -> unit
(** §1 "at least two PCs": cost of extra mirrors. *)

val availability : unit -> unit
(** §1 reliability argument quantified: Monte-Carlo availability and
    data-loss probability of the paper's deployments. *)

val trend : unit -> unit
(** §6: project interconnect and disk trends forward; the PERSEAS/RVM
    speedup widens every year. *)

val paging : unit -> unit
(** The project context (remote paging): random access over a larger-
    than-memory space, remote-memory backing vs a swap disk. *)

val datastores : unit -> unit
(** Application-layer cost: transactional hash-map and B+-tree
    operation rates on PERSEAS vs Vista. *)

type latency_mix = Debit_credit_mix | Large_update_mix

val latency_mixes : latency_mix list
val mix_label : latency_mix -> string

val traced_run :
  ?tail:Trace.Tail.t ->
  mix:latency_mix ->
  mirrors:int ->
  warmup:int ->
  iters:int ->
  unit ->
  Measure.result * Trace.Sink.t
(** Run one workload mix on a fresh [mirrors]-way testbed with a memory
    trace sink attached; [result.phases] holds the per-phase breakdown
    of the measured window, and the returned sink holds every span and
    event of the run (warmup included) for export.  Pass [tail] to feed
    each measured transaction's latency, spans and events into a
    {!Trace.Tail} (per-phase percentiles, worst-K exemplars). *)

type explained = {
  ex_label : string;
  ex_mirrors : int;
  ex_result : Measure.result;
  ex_tail : Trace.Tail.t;
  ex_model : Costmodel.t;
  ex_pkts64 : int;  (** NIC 64-byte packet delta over the whole traced window. *)
  ex_pkts16 : int;
  ex_bytes : int;  (** NIC bytes written over the window. *)
}

val explain_run :
  ?config:Perseas.config ->
  mix:latency_mix ->
  mirrors:int ->
  warmup:int ->
  iters:int ->
  unit ->
  explained
(** One fully-instrumented cell: a fresh [mirrors]-way testbed with a
    recording ring, a {!Trace.Tail}, and a {!Costmodel} tee'd on the
    engine's span stream, NIC counters reset at attach time so the
    model's settled totals are comparable to the hardware deltas. *)

val exemplar_coverage : Trace.Tail.exemplar -> float
(** Fraction of the exemplar's end-to-end latency covered by named
    [txn] phase spans (1.0 = fully attributed). *)

val explain : unit -> unit
(** R12: tail attribution + the analytic cost model on eager
    debit-credit at 1–3 mirrors.  Prints the per-phase p99 share table
    and the model-vs-NIC packet accounting, writes
    [results/tail_attribution.csv], and fails on any cost-model drift,
    unattributed packet, missing exemplar, or phase attribution below
    95% of the measured p99. *)

val latency_breakdown : unit -> unit
(** R6: where the microseconds of a transaction go — per-phase virtual
    latency (from [txn] spans) for debit-credit and large-update mixes
    at 1–3 mirrors; the phase sums equal end-to-end latency.  Writes
    [results/latency_breakdown.csv]. *)

val telemetry : unit -> unit
(** R7: the churn run instrumented with the {!Trace.Timeseries}
    sampler; renders the {!Telemetry.top} dashboard, writes the full
    series to [results/telemetry_churn.csv] and cross-checks the
    sampled degraded windows against the supervisor's event log. *)

val concurrency : unit -> unit
(** R9: debit-credit under 1–32 interleaved clients at 1 and 3 mirrors
    — one client runs the seed's eager protocol, concurrent runs batch
    two client rounds per group-commit flush.  Reports tps, packets per
    transaction, conflicts and flush counts to
    [results/concurrency.csv], and asserts the acceptance bar: at one
    mirror, 8 clients at least double the sequential throughput on
    strictly fewer packets per transaction. *)

val checkpoint : unit -> unit
(** R10: fuzzy checkpoints and parallel recovery — recovery time vs
    database size with checkpointing off, off with a helper node
    fetching mirror segments in parallel, and on (recovering on the
    checkpoint target's node, adopting the slot in place).  Asserts the
    acceptance bar:
    smallest to largest database, checkpointed recovery grows ≤ 1.5x
    while plain mirror recovery at least doubles.  Writes
    [results/checkpoint.csv]. *)

val timeline : latency_mix -> unit
(** One instrumented workload run: gauge samples on a 50 us virtual-
    time grid to [results/timeline_<mix>.csv], plus a Chrome trace
    (spans, instants and counter tracks) to
    [results/timeline_<mix>.json] for Perfetto. *)

val names : (string * string * (unit -> unit)) list
(** [(cli-name, description, run)] for every experiment. *)

val all : unit -> unit
(** Run every experiment in DESIGN.md order. *)
