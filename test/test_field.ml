(* Tests for the field layer (lib/field): typed point descriptors,
   register-mapped devices, per-device link sessions, concentrator
   aggregation and its end-to-end determinism — plus extra DNP3 codec
   coverage riding along (the fleet shares the substation field
   protocols). *)

module P = Field.Point
module D = Field.Device
module S = Field.Session
module MB = Scada.Modbus
module D3 = Scada.Dnp3
module FF = Scada.Field_frame

(* ------------------------------------------------------------------ *)
(* Point *)

let test_point_analog_derivation () =
  let p = P.analog ~table:P.Input_register ~address:3 ~nominal:1000 ~spread:800 in
  Alcotest.(check int) "step" 100 p.P.step;
  Alcotest.(check int) "deadband" 200 p.P.deadband;
  Alcotest.(check int) "lo" 200 (P.lo p);
  Alcotest.(check int) "hi" 1800 (P.hi p);
  (* Tiny spreads floor at 1, never 0 (a zero step would freeze the
     walk; a zero deadband would report every tick). *)
  let tiny = P.analog ~table:P.Input_register ~address:0 ~nominal:5 ~spread:2 in
  Alcotest.(check int) "step floor" 1 tiny.P.step;
  Alcotest.(check int) "deadband floor" 1 tiny.P.deadband

let test_point_envelope_clipped_to_u16 () =
  let p =
    P.analog ~table:P.Holding_register ~address:0 ~nominal:0xFFF0 ~spread:0x100
  in
  Alcotest.(check int) "hi clipped" 0xFFFF (P.hi p);
  let q = P.analog ~table:P.Holding_register ~address:0 ~nominal:10 ~spread:100 in
  Alcotest.(check int) "lo clipped" 0 (P.lo q)

let test_point_map_digest_sensitive () =
  let mk addr = P.analog ~table:P.Input_register ~address:addr ~nominal:1000 ~spread:100 in
  let d1 = P.map_digest [| mk 0; mk 1 |] in
  let d2 = P.map_digest [| mk 1; mk 0 |] in
  let d3 = P.map_digest [| mk 0; mk 1 |] in
  Alcotest.(check bool) "same points same digest" true (Cryptosim.Digest.equal d1 d3);
  Alcotest.(check bool) "order matters" false (Cryptosim.Digest.equal d1 d2)

let prop_point_render_matches_printf =
  QCheck.Test.make ~count:2_000 ~name:"point render matches Printf"
    (let n = QCheck.(oneof [ int; oneofl [ min_int; max_int; 0; -1; 9; -10 ] ]) in
     QCheck.(quad (int_bound 3) n (pair n n) (pair n n)))
    (fun (tbl, address, (nominal, spread), (step, deadband)) ->
      let table = Option.get (FF.table_of_int tbl) in
      let p = { P.table; address; nominal; spread; step; deadband } in
      Format.asprintf "%a" P.pp p
      = Printf.sprintf "%s@%d:n%d,s%d,st%d,db%d" (FF.table_name table) address
          nominal spread step deadband)

let prop_point_digest_matches_render =
  QCheck.Test.make ~count:2_000 ~name:"point digest = digest of render"
    (let n = QCheck.(oneof [ int; oneofl [ min_int; max_int; 0; -1; 9; -10 ] ]) in
     QCheck.(quad (int_bound 3) n (pair n n) (pair n n)))
    (fun (tbl, address, (nominal, spread), (step, deadband)) ->
      let table = Option.get (FF.table_of_int tbl) in
      let p = { P.table; address; nominal; spread; step; deadband } in
      Cryptosim.Digest.equal (P.digest p)
        (Cryptosim.Digest.of_string
           (Printf.sprintf "%s@%d:n%d,s%d,st%d,db%d" (FF.table_name table)
              address nominal spread step deadband)))

(* ------------------------------------------------------------------ *)
(* Device *)

(* A one-device store: device 0, global id 7, behind concentrator 2. *)
let mk_device ?(seed = 42L) () =
  D.create ~concentrator:2 ~first_device:7 ~count:1 ~seed:(fun _ -> seed)

let test_device_same_seed_same_map () =
  let a = mk_device () and b = mk_device () in
  Alcotest.(check bool) "map digests equal" true
    (Cryptosim.Digest.equal (D.map_digest a 0) (D.map_digest b 0));
  Alcotest.(check bool) "adverts equal" true
    (FF.equal_advert (D.advert a 0) (D.advert b 0));
  let c = mk_device ~seed:43L () in
  Alcotest.(check bool) "different seed, different map" false
    (Cryptosim.Digest.equal (D.map_digest a 0) (D.map_digest c 0))

(* The register-map digest each device advertises, for the first three
   devices of a concentrator seeded 42 (device i draws from
   [derive ~seed:42 ~index:(1 + i)]). E12 pins only advert sizes, since
   the wire measure ignores the digest value. *)
let test_device_map_digest_golden () =
  let store =
    D.create ~concentrator:0 ~first_device:0 ~count:3
      ~seed:(fun i -> Sim.Rng.derive ~seed:42L ~index:(1 + i))
  in
  List.iteri
    (fun i hex ->
      Alcotest.(check string) (Printf.sprintf "device %d" i) hex
        (Cryptosim.Digest.to_hex (D.map_digest store i)))
    [ "6919f4dc0ac36168"; "f9f79ebab08ea51f"; "c6d7ef52e4a17a8c" ]

let test_device_tick_deterministic () =
  let a = mk_device () and b = mk_device () in
  for _ = 1 to 200 do
    let na = D.tick a 0 in
    let ea = D.events a in
    let nb = D.tick b 0 in
    let eb = D.events b in
    Alcotest.(check int) "same count" na nb;
    Alcotest.(check int) "count is the buffer length" na (List.length ea);
    Alcotest.(check bool) "same events" true (ea = eb)
  done

(* Deterministic allocation guard (a GC word count, not a timing): a
   tick writes into the store's reusable event buffer and draws from an
   unboxed RNG bank, so scanning the fleet allocates nothing. *)
let test_device_tick_allocates_nothing () =
  let store =
    D.create ~concentrator:0 ~first_device:0 ~count:1_000
      ~seed:(fun i -> Sim.Rng.derive ~seed:9L ~index:i)
  in
  let events = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    for d = 0 to D.count store - 1 do
      events := !events + D.tick store d
    done
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "events raised" true (!events > 0);
  Alcotest.(check (float 0.)) "minor words" 0. words

let serve_ok dev body =
  match D.serve dev 0 body with
  | MB.Exception_response { function_code; exception_code } ->
    Alcotest.failf "unexpected exception fc=0x%02x code=%d" function_code
      exception_code
  | resp -> resp

let test_device_serve_all_function_codes () =
  let dev = mk_device () in
  (match serve_ok dev (MB.Read_coils { start = 0; count = D.coils_count }) with
  | MB.Coils bits -> Alcotest.(check int) "coils" D.coils_count (List.length bits)
  | _ -> Alcotest.fail "expected Coils");
  (match
     serve_ok dev
       (MB.Read_discrete_inputs { start = 0; count = D.discrete_inputs_count })
   with
  | MB.Discrete_inputs bits ->
    Alcotest.(check int) "discrete inputs" D.discrete_inputs_count (List.length bits)
  | _ -> Alcotest.fail "expected Discrete_inputs");
  (match
     serve_ok dev
       (MB.Read_holding_registers { start = 0; count = D.holding_registers_count })
   with
  | MB.Holding_registers regs ->
    Alcotest.(check int) "holding" D.holding_registers_count (List.length regs)
  | _ -> Alcotest.fail "expected Holding_registers");
  (match
     serve_ok dev
       (MB.Read_input_registers { start = 0; count = D.input_registers_count })
   with
  | MB.Input_registers regs ->
    Alcotest.(check int) "input" D.input_registers_count (List.length regs)
  | _ -> Alcotest.fail "expected Input_registers");
  (match serve_ok dev (MB.Write_single_coil { address = 1; value = true }) with
  | MB.Coil_written { address = 1; value = true } -> ()
  | _ -> Alcotest.fail "expected Coil_written");
  (match serve_ok dev (MB.Write_single_register { address = 2; value = 0xAB }) with
  | MB.Register_written { address = 2; value = 0xAB } -> ()
  | _ -> Alcotest.fail "expected Register_written");
  (match
     serve_ok dev (MB.Write_multiple_coils { start = 0; values = [ true; false ] })
   with
  | MB.Coils_written { start = 0; count = 2 } -> ()
  | _ -> Alcotest.fail "expected Coils_written");
  match
    serve_ok dev (MB.Write_multiple_registers { start = 1; values = [ 5; 6 ] })
  with
  | MB.Registers_written { start = 1; count = 2 } -> ()
  | _ -> Alcotest.fail "expected Registers_written"

let test_device_write_then_read_back () =
  let dev = mk_device () in
  (match
     serve_ok dev (MB.Write_multiple_registers { start = 0; values = [ 0x123; 0x456 ] })
   with
  | MB.Registers_written _ -> ()
  | _ -> Alcotest.fail "write failed");
  Alcotest.(check (option int)) "holding 0" (Some 0x123)
    (D.holding_register dev 0 ~address:0);
  Alcotest.(check (option int)) "holding 1" (Some 0x456)
    (D.holding_register dev 0 ~address:1);
  Alcotest.(check (option int)) "out of range" None
    (D.holding_register dev 0 ~address:99)

let test_device_serve_out_of_range_is_exception_2 () =
  let dev = mk_device () in
  let expect_exc fc body =
    match D.serve dev 0 body with
    | MB.Exception_response { function_code; exception_code = 2 } ->
      Alcotest.(check int) "function code echoed" fc function_code
    | _ -> Alcotest.failf "expected exception 2 for fc 0x%02x" fc
  in
  expect_exc 0x01 (MB.Read_coils { start = D.coils_count; count = 1 });
  expect_exc 0x02
    (MB.Read_discrete_inputs { start = 0; count = D.discrete_inputs_count + 1 });
  expect_exc 0x04 (MB.Read_input_registers { start = 2; count = D.input_registers_count });
  expect_exc 0x10
    (MB.Write_multiple_registers
       { start = D.holding_registers_count - 1; values = [ 1; 2 ] })

let prop_device_input_registers_stay_in_envelope =
  QCheck.Test.make ~count:20 ~name:"device analog walk stays inside point envelopes"
    QCheck.(map Int64.of_int int)
    (fun seed ->
      let dev = D.create ~concentrator:0 ~first_device:1 ~count:1 ~seed:(fun _ -> seed) in
      let ok = ref true in
      for _ = 1 to 500 do
        ignore (D.tick dev 0 : int);
        match D.serve dev 0 (MB.Read_input_registers { start = 0; count = D.input_registers_count }) with
        | MB.Input_registers regs ->
          List.iteri
            (fun _ v -> if v < 0 || v > 0xFFFF then ok := false)
            regs
        | _ -> ok := false
      done;
      !ok)

(* The scan folds each report's checksum from the store's event buffer;
   it must equal the checksum of the report frame those events make. *)
let prop_device_report_checksum_matches_frame =
  QCheck.Test.make ~count:20 ~name:"device report checksum = frame checksum"
    QCheck.(map Int64.of_int int)
    (fun seed ->
      let store =
        D.create ~concentrator:3 ~first_device:70_000 ~count:8
          ~seed:(fun i -> Sim.Rng.derive ~seed ~index:i)
      in
      let ok = ref true in
      for round = 1 to 200 do
        for d = 0 to D.count store - 1 do
          ignore (D.tick store d : int);
          let frame =
            { FF.concentrator = 3; device = D.id store d; seq = round; events = D.events store }
          in
          if D.report_checksum store d <> FF.report_checksum frame then ok := false
        done
      done;
      !ok)

(* The scan charges each integrity poll a precomputed length; it must
   be the length of a real encode -> serve -> encode exchange, whatever
   the registers hold and whatever the transaction and unit ids. *)
let prop_poll_lengths_match_exchange =
  QCheck.Test.make ~count:100 ~name:"integrity poll lengths = real exchange"
    QCheck.(quad (map Int64.of_int int) (int_bound 300) (int_bound 0xFFFF) (int_bound 0xFF))
    (fun (seed, ticks, transaction, unit_id) ->
      let store = D.create ~concentrator:0 ~first_device:0 ~count:1 ~seed:(fun _ -> seed) in
      for _ = 1 to ticks do
        ignore (D.tick store 0 : int)
      done;
      let exchange body =
        let req = { MB.transaction; unit_id; body } in
        let raw = MB.encode_request req in
        match MB.decode_request raw with
        | Error _ -> -1
        | Ok dec ->
          String.length raw
          + String.length (MB.encode_response { dec with body = D.serve store 0 dec.MB.body })
      in
      exchange (MB.Read_input_registers { start = 0; count = D.input_registers_count })
      = Field.Concentrator.input_poll_bytes
      && exchange (MB.Read_discrete_inputs { start = 0; count = D.discrete_inputs_count })
         = Field.Concentrator.discrete_poll_bytes)

(* ------------------------------------------------------------------ *)
(* Session *)

let test_session_linking_handshake_first () =
  let s = S.create ~count:1 ~seed:(fun _ -> 1L) ~loss:0. in
  Alcotest.(check bool) "starts Linking" true (S.state s 0 = S.Linking);
  (match S.step s 0 with
  | `Relink -> ()
  | `Online | `Offline -> Alcotest.fail "first step must be the handshake");
  Alcotest.(check bool) "now Up" true (S.state s 0 = S.Up)

let test_session_zero_loss_never_drops () =
  let s = S.create ~count:1 ~seed:(fun _ -> 1L) ~loss:0. in
  ignore (S.step s 0);
  for _ = 1 to 1000 do
    match S.step s 0 with
    | `Online -> ()
    | `Relink | `Offline -> Alcotest.fail "loss=0 must stay up"
  done;
  Alcotest.(check int) "churn is the one handshake" 1 (S.churn s)

let test_session_certain_loss_cycles () =
  let s = S.create ~count:1 ~seed:(fun _ -> 1L) ~loss:1. in
  ignore (S.step s 0);
  (* Up --loss--> Down (offline), back-off round (offline), relink. *)
  (match S.step s 0 with `Offline -> () | _ -> Alcotest.fail "expected drop");
  (match S.step s 0 with `Offline -> () | _ -> Alcotest.fail "expected back-off");
  match S.step s 0 with
  | `Relink -> ()
  | `Online | `Offline -> Alcotest.fail "expected relink"

let test_session_seq_dedup () =
  let s = S.create ~count:1 ~seed:(fun _ -> 1L) ~loss:0. in
  Alcotest.(check int) "seq 0" 0 (S.next_seq s 0);
  Alcotest.(check int) "seq 1" 1 (S.next_seq s 0);
  Alcotest.(check bool) "accept 0" true (S.accept s 0 ~seq:0);
  Alcotest.(check bool) "replay 0 dropped" false (S.accept s 0 ~seq:0);
  Alcotest.(check bool) "accept 1" true (S.accept s 0 ~seq:1);
  Alcotest.(check bool) "stale dropped" false (S.accept s 0 ~seq:0);
  Alcotest.(check int) "two dups counted" 2 (S.dups_dropped s)

(* ------------------------------------------------------------------ *)
(* Concentrator: end-to-end determinism through a real simulation.     *)

let fleet_fingerprint () =
  let sys, r =
    Spire.Scenarios.fleet ~concentrators:2 ~devices:100
      ~duration_us:3_000_000 ()
  in
  let s = Spire.System.fleet_stats sys in
  let ledger =
    String.concat ";"
      (List.map
         (fun (k, f, b) -> Printf.sprintf "%s=%d/%d" k f b)
         (Spire.System.wire_traffic sys))
  in
  Printf.sprintf
    "confirmed=%d;events=%d;reports=%d;dups=%d;churn=%d;adverts=%d;frames=%d;polls=%d;poll_bytes=%d;conf_ev=%d;conf_wr=%d;%s"
    r.Spire.Scenarios.confirmed s.Field.Concentrator.events_seen
    s.Field.Concentrator.reports_accepted s.Field.Concentrator.dups_dropped
    s.Field.Concentrator.churn s.Field.Concentrator.adverts_sent
    s.Field.Concentrator.report_frames s.Field.Concentrator.polls_sent
    s.Field.Concentrator.poll_bytes s.Field.Concentrator.confirmed_events
    s.Field.Concentrator.confirmed_writes ledger

let test_fleet_run_deterministic () =
  let a = fleet_fingerprint () and b = fleet_fingerprint () in
  Alcotest.(check string) "same seed, same fleet trajectory" a b

(* The absolute trajectory of the 2-concentrator, 100-device fleet:
   counters, Modbus poll traffic and the whole wire ledger. A change to
   how the scan computes what it charges must leave every figure here
   as it is. *)
let fleet_golden =
  String.concat ";"
    [
      "confirmed=88"; "events=459"; "reports=395"; "dups=1"; "churn=102";
      "adverts=101"; "frames=396"; "polls=167"; "poll_bytes=4769";
      "conf_ev=446"; "conf_wr=4"; "prime/prepare=2765/171430";
      "prime/commit=2760/171120"; "prime/po_aru=2030/146160";
      "prime/preprepare=465/98580"; "replica_reply=480/85440";
      "prime/po_request=475/47435"; "client_update=80/25364";
      "field/report=396/24080"; "field/advert=101/6161";
      "replica_reply_batch=24/5256"; "prime/slot_reply=12/2496";
      "prime/po_batch=20/2440"; "client_batch=4/1348";
      "prime/slot_request=15/750";
    ]

let test_fleet_trajectory_golden () =
  Alcotest.(check string) "fleet trajectory" fleet_golden (fleet_fingerprint ())

(* Deterministic allocation guard (a GC word count, not a timing): a
   scan round charges reports by event count and integrity polls by
   their measured length, and hands [charge] one of its pre-built
   report frames, so it builds no frame and no Modbus string. What is
   left is the round's one aggregate operation, shared by all 2,500
   devices. Boxing a fresh [`Report n] per report costs about 1.4 words
   per device-round; building frames and Modbus strings about 26. *)
let test_scan_round_allocation () =
  let devices = 2_500 and scan_interval_us = 200_000 and rounds = 40 in
  let engine = Sim.Engine.create ~seed:5L () in
  let group =
    Cryptosim.Threshold.create_group ~seed:5L ~members:[ 0; 1; 2 ] ~threshold:2
  in
  let c =
    Field.Concentrator.create ~engine ~id:0 ~client_id:0 ~first_device:0 ~seed:5L
      ~group ~resubmit_timeout_us:1_000_000
      ~submit:(fun ~attempt:_ _ -> ())
      ~charge:(fun _ -> ())
      ~config:
        {
          Field.Concentrator.default_config with
          devices;
          scan_interval_us;
          write_interval_us = 0;
        }
      ()
  in
  Field.Concentrator.start c;
  let w0 = Gc.minor_words () in
  Sim.Engine.run engine ~until_us:(rounds * scan_interval_us);
  let words = Gc.minor_words () -. w0 in
  let s = Field.Concentrator.stats c in
  Alcotest.(check int) "rounds run" rounds s.Field.Concentrator.rounds;
  Alcotest.(check bool) "devices reported" true (s.Field.Concentrator.report_frames > 0);
  Alcotest.(check bool) "devices polled" true (s.Field.Concentrator.polls_sent > 0);
  let per_device_round = words /. float_of_int (devices * rounds) in
  if per_device_round > 0.5 then
    Alcotest.failf "%.2f minor words per device-round, over 0.5" per_device_round

let test_fleet_confirms_events_and_writes () =
  let sys, _ =
    Spire.Scenarios.fleet ~concentrators:2 ~devices:100
      ~duration_us:5_000_000 ()
  in
  let s = Spire.System.fleet_stats sys in
  Alcotest.(check int) "all devices placed" 100 s.Field.Concentrator.device_count;
  Alcotest.(check bool) "events confirmed" true
    (s.Field.Concentrator.confirmed_events > 0);
  Alcotest.(check bool) "confirmed <= seen" true
    (s.Field.Concentrator.confirmed_events <= s.Field.Concentrator.events_seen);
  Alcotest.(check bool) "writes confirmed" true
    (s.Field.Concentrator.confirmed_writes > 0);
  Alcotest.(check bool) "field frames charged" true
    (List.exists
       (fun (k, _, _) -> k = "field/report")
       (Spire.System.wire_traffic sys))

(* A reconfiguration hands every client the new epoch's threshold
   group. A concentrator left on the old group rejects every reply the
   new epoch signs, so the fleet confirms nothing after the cutover. *)
let test_fleet_confirms_after_reconfiguration () =
  let sys =
    Spire.System.create
      {
        (Spire.System.default_config ()) with
        Spire.System.substations = 2;
        hmis = 1;
        max_batch = 8;
        batch_delay_us = 5_000;
        field_concentrators = 4;
        field_devices = 400;
      }
  in
  let confirmed () =
    (Spire.System.fleet_stats sys).Field.Concentrator.confirmed_events
  in
  Spire.System.start sys;
  Spire.System.run sys ~duration_us:5_000_000;
  Spire.System.submit_reconfig sys [ Member.Reconfig.Promote 1 ];
  Spire.System.run sys ~duration_us:5_000_000;
  Alcotest.(check int) "cut over" 1 (Spire.System.current_epoch sys);
  let at_10s = confirmed () in
  Spire.System.run sys ~duration_us:8_000_000;
  let after = confirmed () - at_10s in
  if after < 1_000 then
    Alcotest.failf "fleet confirmed %d events in the 8 s after the cutover" after

let test_fleet_disabled_charges_nothing () =
  let sys, _ =
    Spire.Scenarios.fault_free ~duration_us:2_000_000 ()
  in
  let s = Spire.System.fleet_stats sys in
  Alcotest.(check int) "no devices" 0 s.Field.Concentrator.device_count;
  Alcotest.(check int) "no events" 0 s.Field.Concentrator.events_seen;
  Alcotest.(check bool) "no field frames in the ledger" true
    (not
       (List.exists
          (fun (k, _, _) -> String.length k >= 6 && String.sub k 0 6 = "field/")
          (Spire.System.wire_traffic sys)))

(* Garbage fleet configs are refused up front, naming the field, rather
   than failing inside the first scan round or silently meaning
   something else. *)

let fleet_cfg tweak =
  tweak
    {
      (Spire.System.default_config ()) with
      Spire.System.field_concentrators = 2;
      field_devices = 10;
    }

let expect_system_rejects msg tweak () =
  Alcotest.check_raises msg (Invalid_argument ("System.create: " ^ msg))
    (fun () -> ignore (Spire.System.create (fleet_cfg tweak) : Spire.System.t))

let test_system_rejects_zero_scan_interval =
  expect_system_rejects "field_scan_interval_us <= 0" (fun c ->
      { c with Spire.System.field_scan_interval_us = 0 })

let test_system_rejects_nan_loss =
  expect_system_rejects "field_loss outside [0, 1]" (fun c ->
      { c with Spire.System.field_loss = Float.nan })

let test_system_rejects_loss_above_one =
  expect_system_rejects "field_loss outside [0, 1]" (fun c ->
      { c with Spire.System.field_loss = 7. })

let test_system_rejects_negative_concentrators =
  expect_system_rejects "field_concentrators < 0" (fun c ->
      { c with Spire.System.field_concentrators = -1 })

(* Every other field [System.create] used to crash on (or accept
   silently): rejected up front with the field's name. *)
let test_system_rejects_garbage_fields () =
  List.iter
    (fun (msg, tweak) -> expect_system_rejects msg tweak ())
    [
      ("substations < 0", fun c -> { c with Spire.System.substations = -1 });
      ("hmis < 0", fun c -> { c with Spire.System.hmis = -1 });
      ( "standby_site_sizes has a negative entry",
        fun c -> { c with Spire.System.standby_site_sizes = [ 2; -1 ] } );
      ( "more than 62 active plus standby replicas",
        fun c -> { c with Spire.System.standby_site_sizes = [ 50; 7 ] } );
      ("poll_interval_us <= 0", fun c -> { c with Spire.System.poll_interval_us = 0 });
      ( "poll_interval_us <= 0",
        fun c -> { c with Spire.System.poll_interval_us = -100_000 } );
      ( "resubmit_timeout_us <= 0",
        fun c -> { c with Spire.System.resubmit_timeout_us = 0 } );
      ( "diversity_variants < 1",
        fun c -> { c with Spire.System.diversity_variants = 0 } );
      ( "diversity_variants < 1",
        fun c -> { c with Spire.System.diversity_variants = -3 } );
      ("max_batch < 1", fun c -> { c with Spire.System.max_batch = 0 });
      ("max_batch < 1", fun c -> { c with Spire.System.max_batch = -4 });
      ("batch_delay_us < 0", fun c -> { c with Spire.System.batch_delay_us = -1 });
      ( "batch_delay_us < 0",
        fun c -> { c with Spire.System.max_batch = 8; batch_delay_us = -1 } );
      ( "field_devices < field_concentrators",
        fun c -> { c with Spire.System.field_devices = 1 } );
    ]

let test_concentrator_rejects_garbage () =
  let engine = Sim.Engine.create ~seed:1L () in
  let group =
    Cryptosim.Threshold.create_group ~seed:1L ~members:[ 0; 1; 2 ] ~threshold:2
  in
  let create config =
    ignore
      (Field.Concentrator.create ~engine ~id:0 ~client_id:0 ~first_device:0
         ~seed:1L ~group ~resubmit_timeout_us:1_000_000
         ~submit:(fun ~attempt:_ _ -> ())
         ~charge:(fun _ -> ())
         ~config ()
        : Field.Concentrator.t)
  in
  let base = Field.Concentrator.default_config in
  let expect msg config =
    Alcotest.check_raises msg
      (Invalid_argument ("Concentrator.create: " ^ msg))
      (fun () -> create config)
  in
  expect "need at least one device" { base with Field.Concentrator.devices = 0 };
  expect "scan_interval_us <= 0" { base with Field.Concentrator.scan_interval_us = -5 };
  expect "keepalive_loss outside [0, 1]"
    { base with Field.Concentrator.keepalive_loss = Float.nan };
  expect "keepalive_loss outside [0, 1]"
    { base with Field.Concentrator.keepalive_loss = -0.5 };
  expect "phase_us < 0" { base with Field.Concentrator.phase_us = -1 };
  expect "write_interval_us < 0" { base with Field.Concentrator.write_interval_us = -1 }

(* ------------------------------------------------------------------ *)
(* Field_frame checksums *)

let test_report_checksum_value_sensitive () =
  let ev table address value = { FF.table; address; value } in
  let r events = { FF.concentrator = 1; device = 2; seq = 3; events } in
  let base = r [ ev FF.Input_register 0 100; ev FF.Discrete_input 1 1 ] in
  let changed = r [ ev FF.Input_register 0 101; ev FF.Discrete_input 1 1 ] in
  let reordered = r [ ev FF.Discrete_input 1 1; ev FF.Input_register 0 100 ] in
  Alcotest.(check bool) "value change changes checksum" false
    (FF.report_checksum base = FF.report_checksum changed);
  Alcotest.(check bool) "order change changes checksum" false
    (FF.report_checksum base = FF.report_checksum reordered);
  Alcotest.(check bool) "stable" true
    (FF.report_checksum base = FF.report_checksum base)

(* ------------------------------------------------------------------ *)
(* DNP3 codec: extra round-trip + fuzz coverage (satellite).           *)

let gen_dnp3_app =
  QCheck.Gen.(
    oneof
      [
        return D3.Poll_request;
        map2
          (fun bins anas -> D3.Poll_response { binary_inputs = bins; analog_inputs = anas })
          (list_size (int_bound 16) bool)
          (list_size (int_bound 16) (int_range (-1_000_000) 1_000_000));
        map2
          (fun point trip -> D3.Operate { point; action = (if trip then D3.Trip else D3.Close) })
          (int_bound 0xFF) bool;
        map2
          (fun point success -> D3.Operate_ack { point; success })
          (int_bound 0xFF) bool;
      ])

let gen_dnp3_frame =
  QCheck.Gen.(
    map2
      (fun (dest, src) app -> { D3.dest; src; app })
      (pair (int_bound 0xFFFF) (int_bound 0xFFFF))
      gen_dnp3_app)

let pp_dnp3 f = Printf.sprintf "dest=%d src=%d" f.D3.dest f.D3.src

let prop_dnp3_any_app_roundtrip =
  QCheck.Test.make ~count:500 ~name:"dnp3 any app roundtrip"
    (QCheck.make ~print:pp_dnp3 gen_dnp3_frame)
    (fun f ->
      match D3.decode (D3.encode f) with
      | Ok f' -> f' = f
      | Error _ -> false)

let prop_dnp3_truncation_never_raises =
  QCheck.Test.make ~count:500 ~name:"dnp3 truncation is Error, never raises"
    (QCheck.make
       ~print:(fun (f, cut) -> Printf.sprintf "%s cut=%.2f" (pp_dnp3 f) cut)
       QCheck.Gen.(pair gen_dnp3_frame (float_bound_inclusive 1.)))
    (fun (f, frac) ->
      let s = D3.encode f in
      let cut =
        min (String.length s - 1)
          (int_of_float (frac *. float_of_int (String.length s)))
      in
      match D3.decode (String.sub s 0 cut) with
      | Ok _ -> false
      | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "decoder raised %s" (Printexc.to_string e))

let prop_dnp3_corrupt_body_rejected =
  QCheck.Test.make ~count:500 ~name:"dnp3 corrupt byte never yields same app"
    (QCheck.make
       ~print:(fun (f, at) -> Printf.sprintf "%s at=%d" (pp_dnp3 f) at)
       QCheck.Gen.(pair gen_dnp3_frame small_nat))
    (fun (f, at_seed) ->
      let s = D3.encode f in
      (* Skip the trailing checksum bytes: corrupting the checksum of a
         frame legitimately fails, which is also fine; body corruption
         must never round-trip to the same app. *)
      let at = 4 + (at_seed mod max 1 (String.length s - 6)) in
      match D3.decode (D3.corrupt s ~at) with
      | Ok f' -> f'.D3.app <> f.D3.app || f'.D3.dest <> f.D3.dest
      | Error _ -> true)

let () =
  Alcotest.run "field"
    [
      ( "point",
        [
          Alcotest.test_case "analog derivation" `Quick test_point_analog_derivation;
          Alcotest.test_case "u16 clipping" `Quick test_point_envelope_clipped_to_u16;
          Alcotest.test_case "map digest" `Quick test_point_map_digest_sensitive;
          QCheck_alcotest.to_alcotest prop_point_render_matches_printf;
          QCheck_alcotest.to_alcotest prop_point_digest_matches_render;
        ] );
      ( "device",
        [
          Alcotest.test_case "seeded map determinism" `Quick
            test_device_same_seed_same_map;
          Alcotest.test_case "tick determinism" `Quick test_device_tick_deterministic;
          Alcotest.test_case "map digest golden" `Quick test_device_map_digest_golden;
          Alcotest.test_case "tick allocates nothing" `Quick
            test_device_tick_allocates_nothing;
          Alcotest.test_case "serves all function codes" `Quick
            test_device_serve_all_function_codes;
          Alcotest.test_case "write then read back" `Quick
            test_device_write_then_read_back;
          Alcotest.test_case "out of range is exception 2" `Quick
            test_device_serve_out_of_range_is_exception_2;
          QCheck_alcotest.to_alcotest prop_device_input_registers_stay_in_envelope;
          QCheck_alcotest.to_alcotest prop_device_report_checksum_matches_frame;
          QCheck_alcotest.to_alcotest prop_poll_lengths_match_exchange;
        ] );
      ( "session",
        [
          Alcotest.test_case "handshake first" `Quick
            test_session_linking_handshake_first;
          Alcotest.test_case "zero loss stays up" `Quick
            test_session_zero_loss_never_drops;
          Alcotest.test_case "certain loss cycles" `Quick
            test_session_certain_loss_cycles;
          Alcotest.test_case "sequence dedup" `Quick test_session_seq_dedup;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "deterministic trajectory" `Quick
            test_fleet_run_deterministic;
          Alcotest.test_case "fleet trajectory golden" `Quick
            test_fleet_trajectory_golden;
          Alcotest.test_case "scan round allocation" `Quick test_scan_round_allocation;
          Alcotest.test_case "confirms events and writes" `Quick
            test_fleet_confirms_events_and_writes;
          Alcotest.test_case "confirms after a reconfiguration" `Quick
            test_fleet_confirms_after_reconfiguration;
          Alcotest.test_case "disabled fleet is silent" `Quick
            test_fleet_disabled_charges_nothing;
          Alcotest.test_case "report checksum" `Quick
            test_report_checksum_value_sensitive;
        ] );
      ( "config",
        [
          Alcotest.test_case "zero scan interval" `Quick
            test_system_rejects_zero_scan_interval;
          Alcotest.test_case "nan loss" `Quick test_system_rejects_nan_loss;
          Alcotest.test_case "loss above one" `Quick test_system_rejects_loss_above_one;
          Alcotest.test_case "negative concentrators" `Quick
            test_system_rejects_negative_concentrators;
          Alcotest.test_case "concentrator rejects garbage" `Quick
            test_concentrator_rejects_garbage;
          Alcotest.test_case "system rejects garbage fields" `Quick
            test_system_rejects_garbage_fields;
        ] );
      ( "dnp3",
        [
          QCheck_alcotest.to_alcotest prop_dnp3_any_app_roundtrip;
          QCheck_alcotest.to_alcotest prop_dnp3_truncation_never_raises;
          QCheck_alcotest.to_alcotest prop_dnp3_corrupt_body_rejected;
        ] );
    ]
