(* The three workloads and the measurement protocol behind main.exe.

   One run builds several identical beds from the seed.  Each bed is
   set up (build, load, warm up: timed as [setup_s]); the first and the
   last also run the deterministic window, a fixed amount of work whose
   virtual-time results, packet counts, allocated words and checksums
   must agree bit for bit.  The last bed then keeps running rounds
   until the host window is full.  Host time is process CPU time;
   correctness checks run outside the host window. *)

open Sim
module P = Perseas
module DC = Workloads.Debit_credit

type workload = Dc_eager | Dc_group8 | Recover_2m

let workloads = [ Dc_eager; Dc_group8; Recover_2m ]

let workload_name = function
  | Dc_eager -> "dc-eager"
  | Dc_group8 -> "dc-group8"
  | Recover_2m -> "recover-2m"

let workload_of_string s = List.find_opt (fun w -> workload_name w = s) workloads

type shape = {
  mirrors : int;
  config : P.config;
  params : DC.params;
  clients : int;  (** 1 = one eager client; more = {!Harness.Multi_client}. *)
  round_txns : int;  (** Committed transactions per round. *)
  warmup_rounds : int;
  det_rounds : int;  (** Rounds in the deterministic window. *)
  crash_each_round : bool;  (** recover-2m: every round ends in crash + recovery. *)
  tail_recoveries : int;
      (** Crash/recover cycles after the host window, so that recovery is
          measured on every workload. *)
}

(* The R9 concurrency sizing (PERSEAS-c8 cell): enough branches that
   eight clients' draws are mostly disjoint. *)
let group_params =
  { DC.scale = 1024; accounts_per_branch = 250; history_slots = 8192; skew = DC.Uniform }

let shape = function
  | Dc_eager ->
      (* The PERSEAS 1-mirror debit-credit cell: 1 K warm-up fills the
         4096-entry dirty log, then 10 K measured transactions. *)
      {
        mirrors = 1;
        config = P.default_config;
        params = DC.default_params;
        clients = 1;
        round_txns = 1000;
        warmup_rounds = 1;
        det_rounds = 10;
        crash_each_round = false;
        tail_recoveries = 21;
      }
  | Dc_group8 ->
      {
        mirrors = 1;
        config = { P.default_config with group_commit = 16 };
        params = group_params;
        clients = 8;
        round_txns = 1000;
        warmup_rounds = 1;
        det_rounds = 10;
        crash_each_round = false;
        tail_recoveries = 21;
      }
  | Recover_2m ->
      (* 500-transaction bursts stay under the dirty-log fill; 20 cycles
         give 10 K latency samples, enough for a p99.9. *)
      {
        mirrors = 2;
        config = P.default_config;
        params = DC.default_params;
        clients = 1;
        round_txns = 500;
        warmup_rounds = 1;
        det_rounds = 20;
        crash_each_round = true;
        tail_recoveries = 0;
      }

(* ------------------------------------------------------------------ *)
(* Meters *)

type nic = { bursts : int; p64 : int; p16 : int; written : int; read : int }

let nic_zero = { bursts = 0; p64 = 0; p16 = 0; written = 0; read = 0 }

let nic_of (c : Sci.Nic.counters) =
  {
    bursts = c.bursts;
    p64 = c.packets64;
    p16 = c.packets16;
    written = c.bytes_written;
    read = c.bytes_read;
  }

let nic_diff a b =
  {
    bursts = a.bursts - b.bursts;
    p64 = a.p64 - b.p64;
    p16 = a.p16 - b.p16;
    written = a.written - b.written;
    read = a.read - b.read;
  }

let nic_sum a b =
  {
    bursts = a.bursts + b.bursts;
    p64 = a.p64 + b.p64;
    p16 = a.p16 + b.p16;
    written = a.written + b.written;
    read = a.read + b.read;
  }

(* Integer growable array: latencies are stored as virtual ns so that
   recording one allocates nothing. *)
type ints = { mutable a : int array; mutable n : int }

let ints () = { a = Array.make 1024 0; n = 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let a = Array.make (max 1024 (2 * v.n)) 0 in
    Array.blit v.a 0 a 0 v.n;
    v.a <- a
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

let to_list v = Array.to_list (Array.sub v.a 0 v.n)

type meter = {
  mutable committed : int;
  mutable attempts : int;
  mutable conflicts : int;
  mutable failed : int;
  mutable host_ns : int;  (** CPU time inside the measured window. *)
  mutable words : int;  (** Minor words inside the measured window. *)
  mutable virt : Time.t;  (** Virtual time of transaction traffic. *)
  lat : ints;  (** Per-transaction virtual latency, ns. *)
  rounds : ints;  (** Per round: committed txns, host ns, reference ns. *)
  mutable nic_txn : nic;
  mutable nic_rec : nic;
  rec_host : ints;  (** Host ns of crash + recover + rebind, per recovery. *)
  rec_ref : ints;  (** The reference reading next to each recovery. *)
  rec_virt : ints;  (** Virtual ns of [recover_replicated], per recovery. *)
  mutable resync_bytes : int;
  mutable undo_bytes : int;
  mutable elided_bytes : int;
  mutable flushes : int;
  mutable group_txns : int;
}

let meter () =
  {
    committed = 0;
    attempts = 0;
    conflicts = 0;
    failed = 0;
    host_ns = 0;
    words = 0;
    virt = Time.zero;
    lat = ints ();
    rounds = ints ();
    nic_txn = nic_zero;
    nic_rec = nic_zero;
    rec_host = ints ();
    rec_ref = ints ();
    rec_virt = ints ();
    resync_bytes = 0;
    undo_bytes = 0;
    elided_bytes = 0;
    flushes = 0;
    group_txns = 0;
  }

let copy_ints v = { a = Array.sub v.a 0 v.n; n = v.n }

let copy_meter m =
  {
    m with
    lat = copy_ints m.lat;
    rounds = copy_ints m.rounds;
    rec_host = copy_ints m.rec_host;
    rec_ref = copy_ints m.rec_ref;
    rec_virt = copy_ints m.rec_virt;
  }

type setup_times = {
  setup_ns : int;
  ref_ns : int;  (** The reference reading taken just before. *)
  create_ns : int;
  load_ns : int;
}

type result = {
  times : setup_times;
  det : meter;  (** The deterministic window alone. *)
  det_checksums : (string * int64) list;
  window : meter;  (** The deterministic window and the rest of the host window. *)
  tail : meter;  (** Recoveries after the host window. *)
  gc0 : Gc.stat;
  gc1 : Gc.stat;  (** Around the host window. *)
  det_nic_since_load : nic;
      (** NIC traffic from the end of the load to the end of the
          deterministic window: warm-up and window, the cell's count. *)
  window_layers : (string * int * int * int) list;
      (** Layer self times (name, calls, ns, words) over the host window,
          traced runs only. *)
}

(* ------------------------------------------------------------------ *)
(* Statistics helpers *)

let median = function
  | [] -> nan
  | xs ->
      let s = Stats.Series.create () in
      List.iter (Stats.Series.add s) xs;
      Stats.Series.median s

let mean = function [] -> nan | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let percentile xs p =
  match xs with
  | [] -> nan
  | xs ->
      let s = Stats.Series.create () in
      List.iter (Stats.Series.add s) xs;
      Stats.Series.percentile s p

let per a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Virtual phase times, from the engine's own trace sink (traced runs) *)

let phases : (string, int * float) Hashtbl.t = Hashtbl.create 16

let fold_phases sink ~cat =
  List.iter
    (fun (p : Trace.phase_stat) ->
      let n, us = Option.value (Hashtbl.find_opt phases p.phase) ~default:(0, 0.) in
      Hashtbl.replace phases p.phase (n + p.count, us +. p.total_us))
    (Trace.breakdown ~cat (Trace.Sink.spans sink));
  Trace.Sink.clear sink

let phase_mean name =
  match Hashtbl.find_opt phases name with Some (n, us) when n > 0 -> us /. float_of_int n | _ -> 0.

(* A span-only memory sink: packet events are not needed for phase
   times and would dominate its memory during a 10 MB fetch. *)
let new_sink () = Trace.Sink.memory ~event_capacity:1 ()

(* ------------------------------------------------------------------ *)

exception Crash

(* Reference kernels: fixed OCaml work independent of the library — short-
   lived allocation and hashing, then a 16 MB fill and copy — timed next
   to every host measurement.  This host's speed drifts by 10-20% over
   minutes (a plain compute loop drifts as much as the simulator), so a
   host time is reported scaled by [nominal_ref_ns / reference]: the
   cost in units of the reference work, which cancels the drift. *)
let nominal_ref_ns = 7_000_000

let ref_buf = Bytes.make (16 * 1024 * 1024) 'r'

let ref_kernels () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 1 to 20_000 do
    let l = List.init 8 (fun j -> (i * j) lxor !acc) in
    acc := !acc + List.fold_left ( + ) 0 l;
    Hashtbl.replace h (i land 1023) l
  done;
  ignore (Sys.opaque_identity !acc);
  Bytes.fill ref_buf 0 (Bytes.length ref_buf) 'x';
  Bytes.blit ref_buf 0 ref_buf 1 (8 * 1024 * 1024)

let reference () =
  let h0 = Hostclock.cpu_ns () in
  ref_kernels ();
  Hostclock.cpu_ns () - h0

(* A host time in reference units, expressed in ns. *)
let normalize ~ns ~ref_ns = float_of_int ns *. float_of_int nominal_ref_ns /. float_of_int ref_ns

module Make (E : Layers.ENGINE) = struct
  module W = DC.Make (E)
  module Wp = DC.Make (Layers.Plain)

  type bed = {
    shape : shape;
    clock : Clock.t;
    cluster : Cluster.t;
    servers : Netram.Server.t list;
    mutable t : P.t;
    mutable db : W.db;
    rng : Rng.t;
    crash_rng : Rng.t;  (** Draws of the transactions a crash interrupts. *)
    nic_after_load : nic;
    sink : Trace.Sink.t;
    mutable pending_commit : int;  (** Client whose commit returned, awaiting its latency. *)
  }

  let timed a f = if E.traced then Layers.time a f () else f ()
  let nic b = nic_of (Sci.Nic.counters (Cluster.nic b.cluster))

  (* Verification goes through the untimed engine so it never counts
     as [core.read]. *)
  let plain_db b : Wp.db =
    let d = b.db in
    {
      Wp.engine = d.W.engine;
      params = d.W.params;
      accounts = d.W.accounts;
      tellers = d.W.tellers;
      branches = d.W.branches;
      history = d.W.history;
      n_accounts = d.W.n_accounts;
      n_tellers = d.W.n_tellers;
      n_branches = d.W.n_branches;
      hist_head = d.W.hist_head;
      tx_counter = d.W.tx_counter;
    }

  let checksums b = List.map (fun s -> (P.segment_name s, P.checksum b.t s)) (P.segments b.t)

  let check b m ~what =
    if not (Wp.consistent (plain_db b)) then begin
      m.failed <- m.failed + 1;
      Printf.eprintf "check failed: TPC-B balances inconsistent %s\n%!" what
    end;
    match P.verify_mirrors b.t with
    | [] -> ()
    | bad ->
        m.failed <- m.failed + 1;
        Printf.eprintf "check failed: %d mirror copies diverge %s\n%!" (List.length bad) what

  let add_stats m (s0 : P.stats) (s1 : P.stats) =
    m.undo_bytes <- m.undo_bytes + s1.undo_bytes_logged - s0.undo_bytes_logged;
    m.elided_bytes <- m.elided_bytes + s1.elided_undo_bytes - s0.elided_undo_bytes;
    m.flushes <- m.flushes + s1.group_flushes - s0.group_flushes;
    m.group_txns <- m.group_txns + s1.group_commit_txns - s0.group_commit_txns

  (* One eager client, closed loop: latency is the virtual time of one
     [transaction] call. *)
  let eager_txns b m n =
    let lat = m.lat in
    for _ = 1 to n do
      let s = Clock.now b.clock in
      W.transaction b.db b.rng;
      push lat (Time.to_ns (Clock.now b.clock - s))
    done;
    m.committed <- m.committed + n;
    m.attempts <- m.attempts + n

  (* Interleaved clients.  A transaction's latency runs from its first
     begin to the return of its commit — what a closed-loop client
     waits, retries included.  The commit returns just before the next
     callback, with no virtual time in between, so that callback
     records it; the last one of a round is recorded after the drain. *)
  let group_txns b m n =
    let began = Array.make b.shape.clients Time.zero in
    let settle () =
      let c = b.pending_commit in
      if c >= 0 then begin
        push m.lat (Time.to_ns (Clock.now b.clock - began.(c)));
        b.pending_commit <- -1
      end
    in
    let prepare c =
      settle ();
      began.(c) <- Clock.now b.clock;
      (c, W.draw b.db b.rng)
    in
    let declare txn (_, d) =
      settle ();
      W.declare b.db txn d
    in
    let apply (c, d) =
      settle ();
      W.apply b.db d;
      b.pending_commit <- c
    in
    let spec =
      if E.traced then
        {
          Harness.Multi_client.prepare = Layers.time Layers.prepare prepare;
          declare = (fun txn x -> Layers.time Layers.declare (declare txn) x);
          apply = Layers.time Layers.apply apply;
        }
      else { Harness.Multi_client.prepare; declare; apply }
    in
    let s =
      timed Layers.driver (fun () ->
          Harness.Multi_client.run b.t ~clients:b.shape.clients ~total:n spec)
    in
    settle ();
    m.committed <- m.committed + s.committed;
    m.attempts <- m.attempts + s.attempts;
    m.conflicts <- m.conflicts + s.conflicts

  (* Committed traffic, measured: host time, words, virtual time, NIC
     and engine counters. *)
  let traffic b m n =
    if E.traced then P.set_sink b.t b.sink;
    let s0 = P.stats b.t and c0 = nic b and v0 = Clock.now b.clock and before = m.committed in
    let w0 = Hostclock.words () in
    let h0 = Hostclock.cpu_ns () in
    if b.shape.clients = 1 then eager_txns b m n else group_txns b m n;
    let h1 = Hostclock.cpu_ns () in
    let w1 = Hostclock.words () in
    m.host_ns <- m.host_ns + h1 - h0;
    m.words <- m.words + w1 - w0;
    m.virt <- m.virt + (Clock.now b.clock - v0);
    m.nic_txn <- nic_sum m.nic_txn (nic_diff (nic b) c0);
    add_stats m s0 (P.stats b.t);
    if E.traced then fold_phases b.sink ~cat:"txn";
    (m.committed - before, h1 - h0)

  let rebind b t2 =
    let get name = Option.get (P.segment t2 name) in
    b.t <- t2;
    b.db <-
      {
        b.db with
        W.engine = t2;
        accounts = get "accounts";
        tellers = get "tellers";
        branches = get "branches";
        history = get "history";
      }

  (* A primary crash in the middle of a transaction: one drawn
     transaction runs to commit (and, under group commit, its flush)
     while the crash waits for a drawn remote packet — a declaration's
     undo record, a commit propagation, a fence — or, if the transaction
     sends fewer, strikes after it.  A software error wipes the
     primary's DRAM; the primary restarts, recovers from the mirrors and
     rebinds the segments.  Recovery must land exactly on the image
     before the transaction or, once its commit point may have been
     reached on some mirror, the image after it. *)
  let crash_cycle b m ~ref_ns =
    (* Every recovery starts from a finished major cycle, so it pays for
       its own garbage rather than the collector's debt from the traffic
       before.  ([Gc.full_major] here made the heap grow to 2x under
       OCaml 5.1.) *)
    Gc.major ();
    let pre = checksums b in
    let w0 = Hostclock.words () in
    let h0 = Hostclock.cpu_ns () in
    let d = W.draw b.db b.crash_rng in
    (* About 20 packets per mirror: a debit-credit transaction sends ~13
       per mirror, so most cuts land inside it and the rest just after. *)
    let cut = Rng.int b.crash_rng (20 * b.shape.mirrors) and sent = ref 0 in
    P.set_packet_hook b.t (Some (fun () -> if !sent >= cut then raise Crash else incr sent));
    let post = ref None and paused_ns = ref 0 and paused_words = ref 0 in
    let completed =
      match
        let txn = E.begin_transaction b.t in
        W.declare b.db txn d;
        W.apply b.db d;
        (* The image the commit will produce, read off the clock. *)
        let p0 = Hostclock.cpu_ns () and pw0 = Hostclock.words () in
        post := Some (checksums b);
        paused_words := Hostclock.words () - pw0;
        paused_ns := Hostclock.cpu_ns () - p0;
        E.commit txn;
        P.flush b.t
      with
      | () -> true
      | exception Crash -> false
    in
    P.set_packet_hook b.t None;
    let h1 = Hostclock.cpu_ns () in
    ignore
      (timed Layers.crash (fun () ->
           Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error));
    timed Layers.restart (fun () -> Cluster.restart_node b.cluster 0);
    let c0 = nic b and v0 = Clock.now b.clock in
    let sink = if E.traced then Some b.sink else None in
    let t2 =
      timed Layers.recover (fun () ->
          P.recover_replicated ~config:(P.config b.t) ?sink ~cluster:b.cluster ~local:0
            ~servers:b.servers ())
    in
    let v1 = Clock.now b.clock in
    rebind b t2;
    let h2 = Hostclock.cpu_ns () in
    let w2 = Hostclock.words () in
    m.host_ns <- m.host_ns + h2 - h0 - !paused_ns;
    m.words <- m.words + w2 - w0 - !paused_words;
    push m.rec_host (h2 - h1);
    push m.rec_ref ref_ns;
    push m.rec_virt (Time.to_ns (v1 - v0));
    m.nic_rec <- nic_sum m.nic_rec (nic_diff (nic b) c0);
    m.resync_bytes <- m.resync_bytes + (P.stats t2).resync_bytes;
    m.attempts <- m.attempts + 1;
    if E.traced then fold_phases b.sink ~cat:"recovery";
    let got = checksums b in
    let ok =
      match !post with
      | Some post when completed -> got = post
      | Some post -> got = pre || got = post
      | None -> got = pre
    in
    if not ok then begin
      m.failed <- m.failed + 1;
      Printf.eprintf "check failed: recovery after a crash at packet %d landed on neither the \
                      image before the transaction nor the one after it\n%!" cut
    end;
    (match P.verify_mirrors b.t with
    | [] -> ()
    | bad ->
        m.failed <- m.failed + 1;
        Printf.eprintf "check failed: %d mirror copies diverge after recovery\n%!"
          (List.length bad));
    h2 - h0 - !paused_ns

  (* One round of the workload; returns (committed txns, host ns). *)
  let round b m =
    let r = reference () in
    let n, ns = traffic b m b.shape.round_txns in
    let ns = if b.shape.crash_each_round then ns + crash_cycle b m ~ref_ns:r else ns in
    push m.rounds n;
    push m.rounds ns;
    push m.rounds r

  (* [Testbed.replicated_bed]'s layout, built here so that the cluster
     and the load are timed apart.  The reference readings the warm-up
     rounds take are not set-up time. *)
  let setup shape ~seed =
    let ref_ns = reference () in
    let h0 = Hostclock.cpu_ns () in
    let clock = Clock.create () in
    let mb n = n * 1024 * 1024 in
    let specs =
      Cluster.spec ~dram_size:(mb 64) ~power_supply:0 "primary"
      :: List.init shape.mirrors (fun i ->
             Cluster.spec ~dram_size:(mb 64) ~power_supply:(i + 1) (Printf.sprintf "mirror%d" i))
    in
    let cluster = Cluster.create ~clock specs in
    let h1 = Hostclock.cpu_ns () in
    let servers =
      List.init shape.mirrors (fun i -> Netram.Server.create (Cluster.node cluster (i + 1)))
    in
    let clients = List.map (fun server -> Netram.Client.create ~cluster ~local:0 ~server) servers in
    let t = P.init_replicated ~config:shape.config clients in
    let h2 = Hostclock.cpu_ns () in
    let db = W.setup t ~params:shape.params in
    let h3 = Hostclock.cpu_ns () in
    let b =
      {
        shape;
        clock;
        cluster;
        servers;
        t;
        db;
        rng = Rng.create seed;
        crash_rng = Rng.create (seed + 1_000_003);
        nic_after_load = nic_of (Sci.Nic.counters (Cluster.nic cluster));
        sink = (if E.traced then new_sink () else Trace.Sink.noop);
        pending_commit = -1;
      }
    in
    let warm = meter () in
    for _ = 1 to shape.warmup_rounds do
      round b warm
    done;
    let h4 = Hostclock.cpu_ns () in
    let warm_refs = List.filteri (fun i _ -> i mod 3 = 2) (to_list warm.rounds) in
    let setup_ns = h4 - h0 - List.fold_left ( + ) 0 warm_refs in
    (b, { setup_ns; ref_ns; create_ns = h1 - h0; load_ns = h3 - h2 }, warm.failed)

  (* The deterministic window: fixed work, the same on every bed. *)
  let det_window b =
    let m = meter () in
    for _ = 1 to b.shape.det_rounds do
      round b m
    done;
    check b m ~what:"after the deterministic window";
    m

  (* Keep going on the same bed until [seconds] of host time are in. *)
  let host_window b m ~seconds =
    let budget = int_of_float (seconds *. 1e9) in
    while m.host_ns < budget do
      round b m
    done;
    check b m ~what:"after the host window"

  let setup_only shape ~seed =
    Gc.full_major ();
    let _, times, failed = setup shape ~seed in
    (times, failed)

  (* One bed from set-up to the end: the deterministic window, then
     (when [host] is given) the host window, then the recovery tail.
     The bed is dropped on return so the next one starts from an empty
     heap and the peak resident set covers one bed. *)
  let bed_run shape ~seed ?host ~tail () =
    Gc.full_major ();
    let b, times, warm_failed = setup shape ~seed in
    Layers.reset ();
    Hashtbl.reset phases;
    let gc0 = Gc.quick_stat () in
    let m = det_window b in
    m.failed <- m.failed + warm_failed;
    let det = copy_meter m in
    let det_checksums = checksums b in
    let det_nic_since_load = nic_diff (nic b) b.nic_after_load in
    Option.iter (fun seconds -> host_window b m ~seconds) host;
    let gc1 = Gc.quick_stat () in
    let window_layers = Layers.snapshot () in
    let tail_m = meter () in
    for _ = 1 to tail do
      ignore (crash_cycle b tail_m ~ref_ns:(reference ()))
    done;
    if tail > 0 then check b tail_m ~what:"after the recovery tail";
    {
      times;
      det;
      det_checksums;
      window = m;
      tail = tail_m;
      gc0;
      gc1;
      det_nic_since_load;
      window_layers;
    }
end
(* ------------------------------------------------------------------ *)
(* The deterministic digest: everything that must repeat exactly at one
   seed.  [words] is left out when comparing a traced bed against a
   plain one — the timing wrapper allocates. *)

let nic_string n = Printf.sprintf "%d/%d/%d/%d/%d" n.bursts n.p64 n.p16 n.written n.read

let digest ~words (m : meter) ~checksums =
  let lat = List.map float_of_int (to_list m.lat) in
  [
    ("committed", string_of_int m.committed);
    ("attempts", string_of_int m.attempts);
    ("conflicts", string_of_int m.conflicts);
    ("virt_ns", string_of_int (Time.to_ns m.virt));
    ("latency_n", string_of_int m.lat.n);
    ("latency_p50", Printf.sprintf "%h" (percentile lat 50.));
    ("latency_p999", Printf.sprintf "%h" (percentile lat 99.9));
    ("nic_txn", nic_string m.nic_txn);
    ("nic_rec", nic_string m.nic_rec);
    ("recover_virt_ns", String.concat "," (List.map string_of_int (to_list m.rec_virt)));
    ("resync_bytes", string_of_int m.resync_bytes);
    ("undo_bytes", string_of_int m.undo_bytes);
    ("elided_bytes", string_of_int m.elided_bytes);
    ("flushes", string_of_int m.flushes);
    ("group_txns", string_of_int m.group_txns);
    ( "checksums",
      String.concat "," (List.map (fun (n, c) -> Printf.sprintf "%s=%Lx" n c) checksums) );
  ]
  @ if words then [ ("words", string_of_int m.words) ] else []

let digest_diff a b =
  List.filter_map
    (fun (k, v) ->
      match List.assoc_opt k b with
      | Some v' when v' = v -> None
      | v' -> Some (Printf.sprintf "%s: %s vs %s" k v (Option.value v' ~default:"missing")))
    a

(* Recovery in the tail must not depend on how long the host window
   ran: the first [k] tail recoveries of every bed take the same virtual
   time. *)
let tail_digest ~k (m : meter) =
  let first = List.filteri (fun i _ -> i < k) (to_list m.rec_virt) in
  [ ("tail_recover_virt_ns", String.concat "," (List.map string_of_int first)) ]
