(* The benchmark observes without perturbing: dc-eager with the timing
   wrapper and the trace sink gives the same virtual results, NIC
   counters and checksums as without them, and on the PERSEAS 1-mirror
   debit-credit cell's window (seed 7, 1 K warm-up + 10 K) it
   reproduces the cell's committed figures exactly. *)

open Perfbench
module B = Bench
module Pl = B.Make (Layers.Plain)
module Tr = B.Make (Layers.Timed)

let seed = 7
let shape = B.shape B.Dc_eager

let plain = lazy (Pl.bed_run shape ~seed ~tail:3 ())
let traced = lazy (Tr.bed_run shape ~seed ~tail:3 ())

let same_digest () =
  let p = Lazy.force plain and t = Lazy.force traced in
  let diffs =
    B.digest_diff
      (B.digest ~words:false p.det ~checksums:p.det_checksums)
      (B.digest ~words:false t.det ~checksums:t.det_checksums)
    @ B.digest_diff (B.tail_digest ~k:3 p.tail) (B.tail_digest ~k:3 t.tail)
  in
  Alcotest.(check (list string)) "traced = untraced" [] diffs;
  Alcotest.(check bool) "NIC since load" true (p.det_nic_since_load = t.det_nic_since_load);
  Alcotest.(check int) "no failed checks" 0
    (p.window.failed + p.tail.failed + t.window.failed + t.tail.failed)

let cell_figures () =
  List.iter
    (fun (r : B.result Lazy.t) ->
      let r = Lazy.force r in
      let tps = float_of_int r.det.committed /. Sim.Time.to_s r.det.virt in
      let n = r.det_nic_since_load in
      let pkts = float_of_int (n.p64 + n.p16) /. 11_000. in
      Alcotest.(check string) "tps" "23202.0" (Printf.sprintf "%.1f" tps);
      Alcotest.(check string) "pkts/txn" "13.44" (Printf.sprintf "%.2f" pkts))
    [ plain; traced ]

let () =
  Alcotest.run "perfbench"
    [
      ( "observer",
        [
          Alcotest.test_case "wrapper and sink change nothing" `Slow same_digest;
          Alcotest.test_case "PERSEAS cell reproduced" `Slow cell_figures;
        ] );
    ]
