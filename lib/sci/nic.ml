open Sim

type counters = {
  mutable bursts : int;
  mutable packets64 : int;
  mutable packets16 : int;
  mutable packets_streamed : int;
  mutable bytes_written : int;
  mutable bytes_read : int;
}

type t = {
  params : Params.t;
  clock : Clock.t;
  c : counters; (* the only copy; [counters] hands out snapshots *)
  mutable sink : Trace.Sink.t;
      (* Pure observer: event emission never touches the clock or the
         packet stream, so sink on/off runs are byte-identical. *)
  mutable ctx : (string * string) list;
      (* Causal tags appended to every packet instant while set —
         PERSEAS wraps each plan run with the transaction / convoy /
         destination-node identity so per-node streams can be stitched
         back into cross-node timelines.  Trace metadata only: never
         read by the transfer machinery. *)
  mutable tel : Trace.Timeseries.t;
      (* Same contract as the sink: gauges observe the transfer
         machinery, never steer it. *)
  mutable g_burst_bytes : Trace.Gauge.t;
  mutable g_burst_pkts : Trace.Gauge.t;
  mutable g_rpc_ops : Trace.Gauge.t;
  tag_gauges : (string, Trace.Gauge.t) Hashtbl.t;
}

let create ?(params = Params.default) clock =
  (match Params.validate params with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Nic.create: invalid params: " ^ msg));
  let inert = Trace.Timeseries.gauge Trace.Timeseries.noop "" in
  {
    params;
    clock;
    c =
      {
        bursts = 0;
        packets64 = 0;
        packets16 = 0;
        packets_streamed = 0;
        bytes_written = 0;
        bytes_read = 0;
      };
    sink = Trace.Sink.noop;
    ctx = [];
    tel = Trace.Timeseries.noop;
    g_burst_bytes = inert;
    g_burst_pkts = inert;
    g_rpc_ops = inert;
    tag_gauges = Hashtbl.create 8;
  }

let params (t : t) = t.params
let clock (t : t) = t.clock
let set_sink (t : t) sink = t.sink <- sink
let sink (t : t) = t.sink
let set_ctx (t : t) ctx = t.ctx <- ctx
let ctx (t : t) = t.ctx

let set_telemetry (t : t) tel =
  t.tel <- tel;
  t.g_burst_bytes <- Trace.Timeseries.gauge tel "nic.burst_bytes";
  t.g_burst_pkts <- Trace.Timeseries.gauge tel "nic.burst_pkts";
  t.g_rpc_ops <- Trace.Timeseries.gauge tel "netram.rpc_ops";
  Hashtbl.reset t.tag_gauges;
  (* Cumulative counters are mirrored into gauges lazily, at sample
     time, so the hot path pays nothing for them. *)
  Trace.Timeseries.on_sample tel (fun _at ->
      let c = t.c in
      Trace.Timeseries.set tel "nic.bursts" c.bursts;
      Trace.Timeseries.set tel "nic.pkts" (c.packets64 + c.packets16);
      Trace.Timeseries.set tel "nic.pkts64" c.packets64;
      Trace.Timeseries.set tel "nic.pkts16" c.packets16;
      Trace.Timeseries.set tel "nic.streamed_pkts" c.packets_streamed;
      Trace.Timeseries.set tel "nic.bytes_written" c.bytes_written;
      Trace.Timeseries.set tel "nic.bytes_read" c.bytes_read;
      Trace.Timeseries.set tel "nic.bytes" (c.bytes_written + c.bytes_read))

let telemetry (t : t) = t.tel

let tag_gauge (t : t) tag =
  match Hashtbl.find_opt t.tag_gauges tag with
  | Some g -> g
  | None ->
      let g = Trace.Timeseries.gauge t.tel ("nic.bytes." ^ tag) in
      Hashtbl.add t.tag_gauges tag g;
      g

let note_rpc (t : t) = Trace.Gauge.add t.g_rpc_ops 1

let note_burst (t : t) ~bytes ~pkts =
  Trace.Gauge.set t.g_burst_bytes bytes;
  Trace.Gauge.set t.g_burst_pkts pkts

let counters (t : t) = { t.c with bursts = t.c.bursts }

let reset_counters (t : t) =
  let c = t.c in
  c.bursts <- 0;
  c.packets64 <- 0;
  c.packets16 <- 0;
  c.packets_streamed <- 0;
  c.bytes_written <- 0;
  c.bytes_read <- 0

type direction = Write | Read

type step = {
  src : Mem.Image.t;
  src_off : int;
  dst : Mem.Image.t;
  dst_off : int;
  len : int;
  cost : Time.t;
  kind : Packet.kind;
  direction : direction;
  streamed : bool; (* a Full64 after the first of its burst *)
  tag : string; (* traffic class the caller declared, e.g. rpc vs bulk *)
}

type plan = { steps : step list; latency : Time.t; bytes : int }

let align_down x a = x / a * a
let align_up x a = (x + a - 1) / a * a

(* Widen [dst_off, dst_off+len) to the enclosing 64-byte aligned region,
   clamped to the window; gives the sci_memcpy behaviour of section 4. *)
let widen (p : Params.t) ~window ~dst_off ~len =
  let lo = max (Mem.Segment.base window) (align_down dst_off p.buffer_bytes) in
  let hi = min (Mem.Segment.base window + Mem.Segment.len window) (align_up (dst_off + len) p.buffer_bytes) in
  if lo <= dst_off && hi >= dst_off + len then (lo, hi - lo) else (dst_off, len)

let step_costs (p : Params.t) ~hops ~direction ~ends_on_last_word pkts =
  (* Distribute the burst latency over the packets so that partial
     application (a crash mid-burst) accounts time sensibly and full
     application matches Model.write_burst / read costs exactly. *)
  let base, first64, stream64, pkt16 =
    match direction with
    | Write -> (p.t_base, p.t_pkt64_first, p.t_pkt64_stream, p.t_pkt16)
    | Read -> (p.t_read_base, p.t_read_pkt64_first, p.t_read_pkt64_stream, 2 * p.t_pkt16)
  in
  let hop_extra = (hops - 1) * p.t_hop in
  let n = List.length pkts in
  let seen_full64 = ref false in
  List.mapi
    (fun i (pkt : Packet.t) ->
      let packet_cost =
        match pkt.kind with
        | Packet.Part16 -> pkt16
        | Packet.Full64 ->
            let first = not !seen_full64 in
            seen_full64 := true;
            if first then first64 else stream64
      in
      let extra = if i = 0 then base + hop_extra else Time.zero in
      let bonus = if i = n - 1 && ends_on_last_word then p.t_lastword_bonus else Time.zero in
      max Time.zero (packet_cost + extra - bonus))
    pkts

let make_plan t ~hops ~direction ~tag ~src ~src_off ~dst ~dst_off ~off ~len =
  if len < 0 then invalid_arg "Nic: negative length";
  if len = 0 then { steps = []; latency = Time.zero; bytes = 0 }
  else begin
    let p = t.params in
    let pkts = Packet.of_range p ~off ~len in
    let ends = direction = Write && Packet.ends_on_last_word p ~off ~len in
    let costs = step_costs p ~hops ~direction ~ends_on_last_word:ends pkts in
    let seen_full64 = ref false in
    let steps =
      List.map2
        (fun (pkt : Packet.t) cost ->
          let delta = pkt.addr - off in
          let streamed =
            match pkt.kind with
            | Packet.Part16 -> false
            | Packet.Full64 ->
                let first = not !seen_full64 in
                seen_full64 := true;
                not first
          in
          {
            src;
            src_off = src_off + delta;
            dst;
            dst_off = dst_off + delta;
            len = pkt.len;
            cost;
            kind = pkt.kind;
            direction;
            streamed;
            tag;
          })
        pkts costs
    in
    let latency = List.fold_left (fun acc s -> acc + s.cost) Time.zero steps in
    { steps; latency; bytes = len }
  end

let plan_write t ?(hops = 1) ?(tag = "data") ?window ~src ~src_off ~dst ~dst_off ~len () =
  let p = t.params in
  let dst_off', len' =
    match window with
    | Some window
      when len > Params.memcpy_threshold p
           && src_off mod p.buffer_bytes = dst_off mod p.buffer_bytes ->
        widen p ~window ~dst_off ~len
    | _ -> (dst_off, len)
  in
  let src_off' = src_off + (dst_off' - dst_off) in
  (* Packetisation happens in destination (remote physical) address
     space: [off] below is the remote address of the first byte. *)
  make_plan t ~hops ~direction:Write ~tag ~src ~src_off:src_off' ~dst ~dst_off:dst_off'
    ~off:dst_off' ~len:len'

type chunk = {
  ck_tag : string;
  ck_window : Mem.Segment.t option;
  ck_src : Mem.Image.t;
  ck_src_off : int;
  ck_dst : Mem.Image.t;
  ck_dst_off : int;
  ck_len : int;
}

let plan_convoy t ?(hops = 1) chunks =
  let p = t.params in
  (* Per-chunk widening, exactly as [plan_write]. *)
  let chunks =
    List.filter_map
      (fun c ->
        if c.ck_len < 0 then invalid_arg "Nic.plan_convoy: negative length";
        if c.ck_len = 0 then None
        else
          let dst_off', len' =
            match c.ck_window with
            | Some window
              when c.ck_len > Params.memcpy_threshold p
                   && c.ck_src_off mod p.buffer_bytes = c.ck_dst_off mod p.buffer_bytes ->
                widen p ~window ~dst_off:c.ck_dst_off ~len:c.ck_len
            | _ -> (c.ck_dst_off, c.ck_len)
          in
          Some
            {
              c with
              ck_src_off = c.ck_src_off + (dst_off' - c.ck_dst_off);
              ck_dst_off = dst_off';
              ck_len = len';
            })
      chunks
  in
  match chunks with
  | [] -> { steps = []; latency = Time.zero; bytes = 0 }
  | _ :: _ ->
      (* One burst: packetisation is per chunk (each in its own remote
         address range) but costing is global — only the convoy's first
         packet pays the base + hop latency, Full64 streaming carries
         across chunk boundaries (the card's FIFO never drains between
         back-to-back posted writes), and the last-word bonus applies
         only to the final chunk. *)
      let pkts =
        List.concat_map
          (fun c ->
            List.map (fun pkt -> (c, pkt)) (Packet.of_range p ~off:c.ck_dst_off ~len:c.ck_len))
          chunks
      in
      let last = List.nth chunks (List.length chunks - 1) in
      let ends = Packet.ends_on_last_word p ~off:last.ck_dst_off ~len:last.ck_len in
      let n = List.length pkts in
      let hop_extra = (hops - 1) * p.t_hop in
      let seen_full64 = ref false in
      let steps =
        List.mapi
          (fun i (c, (pkt : Packet.t)) ->
            let streamed, packet_cost =
              match pkt.kind with
              | Packet.Part16 -> (false, p.t_pkt16)
              | Packet.Full64 ->
                  let first = not !seen_full64 in
                  seen_full64 := true;
                  (not first, if first then p.t_pkt64_first else p.t_pkt64_stream)
            in
            let extra = if i = 0 then p.t_base + hop_extra else Time.zero in
            let bonus = if i = n - 1 && ends then p.t_lastword_bonus else Time.zero in
            let delta = pkt.addr - c.ck_dst_off in
            {
              src = c.ck_src;
              src_off = c.ck_src_off + delta;
              dst = c.ck_dst;
              dst_off = c.ck_dst_off + delta;
              len = pkt.len;
              cost = max Time.zero (packet_cost + extra - bonus);
              kind = pkt.kind;
              direction = Write;
              streamed;
              tag = c.ck_tag;
            })
          pkts
      in
      let latency = List.fold_left (fun acc s -> acc + s.cost) Time.zero steps in
      let bytes = List.fold_left (fun acc c -> acc + c.ck_len) 0 chunks in
      { steps; latency; bytes }

let plan_read t ?(hops = 1) ?(tag = "data") ~src ~src_off ~dst ~dst_off ~len () =
  make_plan t ~hops ~direction:Read ~tag ~src ~src_off ~dst ~dst_off ~off:src_off ~len

let plan_steps plan = plan.steps
let plan_latency plan = plan.latency
let plan_bytes plan = plan.bytes

let apply_step (t : t) step =
  Mem.Image.blit ~src:step.src ~src_off:step.src_off ~dst:step.dst ~dst_off:step.dst_off
    ~len:step.len;
  Clock.advance t.clock step.cost;
  let c = t.c in
  (match step.kind with
  | Packet.Full64 -> c.packets64 <- c.packets64 + 1
  | Packet.Part16 -> c.packets16 <- c.packets16 + 1);
  if step.streamed then c.packets_streamed <- c.packets_streamed + 1;
  (match step.direction with
  | Write -> c.bytes_written <- c.bytes_written + step.len
  | Read -> c.bytes_read <- c.bytes_read + step.len);
  if Trace.Timeseries.enabled t.tel then Trace.Gauge.add (tag_gauge t step.tag) step.len;
  if Trace.Sink.enabled t.sink then
    Trace.Sink.instant t.sink ~cat:"sci"
      ~name:(match step.kind with Packet.Full64 -> "pkt.full64" | Packet.Part16 -> "pkt.part16")
      ~at:(Clock.now t.clock)
      ~args:
        ([
           ("tag", step.tag);
           ("len", string_of_int step.len);
           ("streamed", if step.streamed then "true" else "false");
           ("dir", (match step.direction with Write -> "write" | Read -> "read"));
         ]
        @ t.ctx)

let run (t : t) plan =
  if plan.steps <> [] then begin
    t.c.bursts <- t.c.bursts + 1;
    if Trace.Timeseries.enabled t.tel then
      note_burst t ~bytes:plan.bytes ~pkts:(List.length plan.steps)
  end;
  List.iter (apply_step t) plan.steps

let write t ?hops ?tag ?window ~src ~src_off ~dst ~dst_off ~len () =
  run t (plan_write t ?hops ?tag ?window ~src ~src_off ~dst ~dst_off ~len ())

let read t ?hops ?tag ~src ~src_off ~dst ~dst_off ~len () =
  run t (plan_read t ?hops ?tag ~src ~src_off ~dst ~dst_off ~len ())

let scratch = Mem.Image.create ~size:8

let write_u64 t ?hops ?tag ~dst ~dst_off v =
  Mem.Image.write_u64 scratch 0 v;
  write t ?hops ?tag ~src:scratch ~src_off:0 ~dst ~dst_off ~len:8 ()

let read_u64 t ?hops ?tag ~src ~src_off () =
  read t ?hops ?tag ~src ~src_off ~dst:scratch ~dst_off:0 ~len:8 ();
  Mem.Image.read_u64 scratch 0
