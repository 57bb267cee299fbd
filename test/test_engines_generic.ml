(* The application layer (Kvstore, Btree) is a functor over
   Txn_intf: these tests run the same model-checked op sequences on the
   baseline engines, proving the interface is honest — the structures
   neither depend on PERSEAS internals nor break on engines with
   different durability machinery. *)

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int

(* Run the same randomised kvstore session on one engine and compare
   against a Hashtbl model. *)
let kv_session (module I : Harness.Testbed.INSTANCE) =
  let module KV = Kvstore.Make (I.E) in
  let config = { Kvstore.buckets = 8; capacity = 32; max_key = 16; max_value = 32 } in
  let kv = KV.create ~config I.engine ~name:"generic" in
  I.E.init_done I.engine;
  let rng = Sim.Rng.create 1234 in
  let model = Hashtbl.create 32 in
  for _ = 1 to 300 do
    let key = Printf.sprintf "k%d" (Sim.Rng.int rng 20) in
    match Sim.Rng.int rng 3 with
    | 0 -> (
        let v = String.make (Sim.Rng.int rng 30) 'v' in
        try
          KV.put kv key v;
          Hashtbl.replace model key v
        with Kvstore.Store_full -> ())
    | 1 ->
        let expect = Hashtbl.mem model key in
        if KV.delete kv key <> expect then Alcotest.failf "%s: delete disagrees" I.label;
        Hashtbl.remove model key
    | _ ->
        if KV.get kv key <> Hashtbl.find_opt model key then
          Alcotest.failf "%s: get disagrees" I.label
  done;
  (match KV.check_invariants kv with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" I.label m);
  check_int (I.label ^ " length") (Hashtbl.length model) (KV.length kv)

let test_kvstore_on_all_engines () =
  List.iter kv_session (Harness.Testbed.all_instances ~dram_mb:16 ~device_mb:16 ())

let bt_session (module I : Harness.Testbed.INSTANCE) =
  let module BT = Btree.Make (I.E) in
  let config = { Btree.max_nodes = 256; degree = 4 } in
  let bt = BT.create ~config I.engine ~name:"generic" in
  I.E.init_done I.engine;
  let rng = Sim.Rng.create 99 in
  let module M = Map.Make (Int64) in
  let model = ref M.empty in
  for _ = 1 to 300 do
    let key = Int64.of_int (Sim.Rng.int rng 100) in
    if Sim.Rng.bool rng then begin
      let value = Int64.of_int (Sim.Rng.int rng 1000) in
      BT.insert bt ~key ~value;
      model := M.add key value !model
    end
    else begin
      let expect = M.mem key !model in
      if BT.delete bt key <> expect then Alcotest.failf "%s: delete disagrees" I.label;
      model := M.remove key !model
    end
  done;
  (match BT.check_invariants bt with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" I.label m);
  check_bool (I.label ^ " bindings")
    true
    (BT.range bt ~lo:Int64.min_int ~hi:Int64.max_int = M.bindings !model)

let test_btree_on_all_engines () =
  List.iter bt_session (Harness.Testbed.all_instances ~dram_mb:16 ~device_mb:16 ())

(* Vista crash-recovery under the kvstore: engine-specific durability,
   engine-generic structure. *)
let test_kvstore_on_vista_survives_crash () =
  let clock = Sim.Clock.create () in
  let cluster = Cluster.create ~clock [ Cluster.spec ~dram_size:(8 * 1024 * 1024) "host" ] in
  let node = Cluster.node cluster 0 in
  let device =
    Disk.Device.create ~clock
      ~backend:(Disk.Device.Rio { Disk.Device.default_rio with ups = true })
      ~capacity:(16 * 1024 * 1024)
  in
  let engine = Baselines.Vista.create ~node ~device () in
  let module KV = Kvstore.Make (Baselines.Vista.Engine) in
  let config = { Kvstore.default_config with buckets = 8; capacity = 32 } in
  let kv = KV.create ~config engine ~name:"store" in
  Baselines.Vista.Engine.init_done engine;
  KV.put kv "durable" "yes";
  ignore (Cluster.Node.crash node Cluster.Failure.Software_error);
  Disk.Device.crash device Disk.Device.Software_error;
  Cluster.Node.restart node;
  let engine2 = Baselines.Vista.recover ~node ~device () in
  let kv2 = KV.attach ~config engine2 ~name:"store" in
  (match KV.check_invariants kv2 with Ok () -> () | Error m -> Alcotest.fail m);
  check (Alcotest.option Alcotest.string) "binding survived Rio" (Some "yes") (KV.get kv2 "durable")

let suite =
  [
    ("kvstore runs on every engine", `Slow, test_kvstore_on_all_engines);
    ("btree runs on every engine", `Slow, test_btree_on_all_engines);
    ("kvstore on Vista survives a crash", `Quick, test_kvstore_on_vista_survives_crash);
  ]
