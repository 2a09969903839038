(* Tests for the SCADA layer: RTU device model, Modbus/DNP3 codecs,
   master state machine, endpoint/proxy/HMI client logic. *)

module R = Scada.Rtu
module MB = Scada.Modbus
module D3 = Scada.Dnp3

(* ------------------------------------------------------------------ *)
(* RTU *)

let make_rtu ?(id = 1) () =
  R.create ~id ~breakers:4 ~feeders:3 ~rng:(Sim.Rng.create 5L)

let test_rtu_initial_state () =
  let rtu = make_rtu () in
  Alcotest.(check int) "breakers" 4 (R.breaker_count rtu);
  Alcotest.(check int) "feeders" 3 (R.feeder_count rtu);
  for i = 0 to 3 do
    Alcotest.(check bool) "closed initially" true (R.breaker rtu ~index:i = R.Closed)
  done

let test_rtu_breaker_operation_delayed () =
  let rtu = make_rtu () in
  R.operate_breaker rtu ~index:2 ~desired:R.Open;
  Alcotest.(check bool) "not yet" true (R.breaker rtu ~index:2 = R.Closed);
  R.tick rtu;
  Alcotest.(check bool) "still pending" true (R.breaker rtu ~index:2 = R.Closed);
  R.tick rtu;
  Alcotest.(check bool) "now open" true (R.breaker rtu ~index:2 = R.Open)

let test_rtu_open_breaker_drops_current () =
  let rtu = make_rtu () in
  R.operate_breaker rtu ~index:0 ~desired:R.Open;
  R.tick rtu;
  R.tick rtu;
  R.tick rtu;
  let s = R.read_status rtu in
  Alcotest.(check bool) "current collapsed" true (s.R.currents_ma.(0) < 10_000)

let test_rtu_status_seq_increments () =
  let rtu = make_rtu () in
  let s1 = R.read_status rtu in
  let s2 = R.read_status rtu in
  Alcotest.(check int) "seq increments" (s1.R.seq + 1) s2.R.seq

let test_rtu_analog_within_bounds () =
  let rtu = make_rtu () in
  for _ = 1 to 500 do
    R.tick rtu
  done;
  let s = R.read_status rtu in
  Array.iter
    (fun v ->
      Alcotest.(check bool) "voltage within spread" true
        (v >= 13_100_000 && v <= 14_500_000))
    s.R.voltages_mv;
  Alcotest.(check bool) "frequency near 60Hz" true
    (s.R.frequency_mhz >= 59_900 && s.R.frequency_mhz <= 60_100)

(* Satellite: physical-plausibility envelopes. Whatever the seed and
   however long the soak — including breaker trips and reclosures
   mid-run — no analog value ever leaves the envelope the mli
   advertises. *)
let prop_rtu_soak_stays_in_envelope =
  QCheck.Test.make ~count:20 ~name:"rtu soak never leaves analog envelopes"
    QCheck.(pair (map Int64.of_int int) (int_range 500 3000))
    (fun (seed, ticks) ->
      let rtu = R.create ~id:1 ~breakers:4 ~feeders:3 ~rng:(Sim.Rng.create seed) in
      let vlo, vhi = R.voltage_envelope_mv in
      let clo, chi = R.current_envelope_ma in
      let flo, fhi = R.frequency_envelope_mhz in
      let ok = ref true in
      for i = 1 to ticks do
        (* Exercise the breaker state machine too: trip and reclose a
           rotating breaker every ~100 ticks. *)
        if i mod 100 = 0 then
          R.operate_breaker rtu ~index:(i / 100 mod 4)
            ~desired:(if i mod 200 = 0 then R.Open else R.Closed);
        R.tick rtu;
        let s = R.read_status rtu in
        Array.iter (fun v -> if v < vlo || v > vhi then ok := false) s.R.voltages_mv;
        Array.iter (fun c -> if c < clo || c > chi then ok := false) s.R.currents_ma;
        if s.R.frequency_mhz < flo || s.R.frequency_mhz > fhi then ok := false
      done;
      !ok)

let test_rtu_tap_clamped () =
  let rtu = make_rtu () in
  R.set_tap rtu ~position:99;
  Alcotest.(check int) "clamped high" 16 (R.read_status rtu).R.tap_position;
  R.set_tap rtu ~position:(-99);
  Alcotest.(check int) "clamped low" (-16) (R.read_status rtu).R.tap_position

(* ------------------------------------------------------------------ *)
(* Modbus *)

let test_modbus_request_roundtrip () =
  let cases =
    [
      MB.Read_coils { start = 0; count = 16 };
      MB.Read_holding_registers { start = 100; count = 8 };
      MB.Write_single_coil { address = 3; value = true };
      MB.Write_single_coil { address = 4; value = false };
      MB.Write_single_register { address = 7; value = 0xBEEF };
    ]
  in
  List.iteri
    (fun i body ->
      let f = { MB.transaction = 1000 + i; unit_id = 17; body } in
      match MB.decode_request (MB.encode_request f) with
      | Ok f' ->
        Alcotest.(check int) "transaction" f.MB.transaction f'.MB.transaction;
        Alcotest.(check int) "unit" f.MB.unit_id f'.MB.unit_id;
        Alcotest.(check bool) "body" true (f.MB.body = f'.MB.body)
      | Error e -> Alcotest.failf "roundtrip %d failed: %s" i e)
    cases

let test_modbus_response_roundtrip () =
  let cases =
    [
      MB.Coils [ true; false; true; true; false; false; false; true; true ];
      MB.Coils [];
      MB.Holding_registers [ 0; 1; 0xFFFF; 42 ];
      MB.Coil_written { address = 2; value = true };
      MB.Register_written { address = 9; value = 77 };
      MB.Exception_response { function_code = 0x03; exception_code = 2 };
    ]
  in
  List.iteri
    (fun i body ->
      let f = { MB.transaction = i; unit_id = 1; body } in
      match MB.decode_response (MB.encode_response f) with
      | Ok f' -> Alcotest.(check bool) "body equal" true (f.MB.body = f'.MB.body)
      | Error e -> Alcotest.failf "roundtrip %d failed: %s" i e)
    cases

let test_modbus_rejects_garbage () =
  Alcotest.(check bool) "short frame" true
    (Result.is_error (MB.decode_request "ab"));
  Alcotest.(check bool) "bad protocol" true
    (Result.is_error (MB.decode_request "\x00\x01\x00\x99\x00\x05\x01\x01\x00\x00\x00\x08"))

let prop_modbus_coils_roundtrip =
  QCheck.Test.make ~name:"modbus coils roundtrip for any bit pattern"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 64) bool)
    (fun bits ->
      let f = { MB.transaction = 7; unit_id = 3; body = MB.Coils bits } in
      match MB.decode_response (MB.encode_response f) with
      | Ok { MB.body = MB.Coils bits'; _ } -> bits = bits'
      | Ok _ | Error _ -> false)

let prop_modbus_registers_roundtrip =
  QCheck.Test.make ~name:"modbus registers roundtrip"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 60) (int_bound 0xFFFF))
    (fun regs ->
      let f = { MB.transaction = 7; unit_id = 3; body = MB.Holding_registers regs } in
      match MB.decode_response (MB.encode_response f) with
      | Ok { MB.body = MB.Holding_registers regs'; _ } -> regs = regs'
      | Ok _ | Error _ -> false)

(* New function codes for the register-mapped fleet (lib/field):
   0x02 Read Discrete Inputs, 0x04 Read Input Registers, 0x0F Write
   Multiple Coils, 0x10 Write Multiple Registers. *)

let prop_modbus_new_requests_roundtrip =
  QCheck.Test.make ~name:"modbus 0x02/0x04/0x0F/0x10 requests roundtrip"
    QCheck.(
      pair (int_bound 3)
        (pair (int_bound 0xFFFF)
           (pair
              (list_of_size (QCheck.Gen.int_range 1 64) bool)
              (list_of_size (QCheck.Gen.int_range 1 60) (int_bound 0xFFFF)))))
    (fun (which, (start, (bits, regs))) ->
      let body =
        match which with
        | 0 -> MB.Read_discrete_inputs { start; count = List.length bits }
        | 1 -> MB.Read_input_registers { start; count = List.length regs }
        | 2 -> MB.Write_multiple_coils { start; values = bits }
        | _ -> MB.Write_multiple_registers { start; values = regs }
      in
      let f = { MB.transaction = 9; unit_id = 2; body } in
      match MB.decode_request (MB.encode_request f) with
      | Ok f' -> f'.MB.body = body
      | Error _ -> false)

let prop_modbus_new_responses_roundtrip =
  QCheck.Test.make ~name:"modbus 0x02/0x04/0x0F/0x10 responses roundtrip"
    QCheck.(
      pair (int_bound 3)
        (pair (int_bound 0xFFFF)
           (pair
              (list_of_size (QCheck.Gen.int_range 0 64) bool)
              (list_of_size (QCheck.Gen.int_range 0 60) (int_bound 0xFFFF)))))
    (fun (which, (start, (bits, regs))) ->
      let body =
        match which with
        | 0 -> MB.Discrete_inputs bits
        | 1 -> MB.Input_registers regs
        | 2 -> MB.Coils_written { start; count = 1 + List.length bits }
        | _ -> MB.Registers_written { start; count = 1 + List.length regs }
      in
      let f = { MB.transaction = 11; unit_id = 5; body } in
      match MB.decode_response (MB.encode_response f) with
      | Ok f' -> f'.MB.body = body
      | Error _ -> false)

let test_modbus_new_exception_responses () =
  List.iter
    (fun function_code ->
      let body = MB.Exception_response { function_code; exception_code = 2 } in
      let f = { MB.transaction = 3; unit_id = 8; body } in
      match MB.decode_response (MB.encode_response f) with
      | Ok f' -> Alcotest.(check bool) "body" true (f'.MB.body = body)
      | Error e -> Alcotest.failf "exception 0x%02x failed: %s" function_code e)
    [ 0x02; 0x04; 0x0F; 0x10 ]

let test_modbus_multi_write_caps () =
  (* byte count is a u8, so real Modbus caps one multi-write at 0x7B0
     coils / 123 registers; the encoder enforces both. *)
  let over_coils =
    { MB.transaction = 0; unit_id = 0;
      body = MB.Write_multiple_coils { start = 0; values = List.init 0x7B1 (fun _ -> true) } }
  in
  let over_regs =
    { MB.transaction = 0; unit_id = 0;
      body = MB.Write_multiple_registers { start = 0; values = List.init 124 (fun _ -> 1) } }
  in
  Alcotest.check_raises "coils over cap" (Invalid_argument "Modbus: too many coils in one write")
    (fun () -> ignore (MB.encode_request over_coils : string));
  Alcotest.check_raises "registers over cap"
    (Invalid_argument "Modbus: too many registers in one write") (fun () ->
      ignore (MB.encode_request over_regs : string))

(* Fuzz: truncation anywhere must yield Error, never an exception; a
   flipped bit must decode to Ok-or-Error, never raise (the MBAP
   header carries no checksum, so a flip may legally re-decode). *)

let gen_any_modbus_request =
  QCheck.Gen.(
    map
      (fun (which, (start, (bits, regs))) ->
        let body =
          match which with
          | 0 -> MB.Read_discrete_inputs { start; count = 1 + List.length bits }
          | 1 -> MB.Read_input_registers { start; count = 1 + List.length regs }
          | 2 -> MB.Write_multiple_coils { start; values = true :: bits }
          | 3 -> MB.Write_multiple_registers { start; values = 1 :: regs }
          | 4 -> MB.Read_coils { start; count = 1 + List.length bits }
          | _ -> MB.Read_holding_registers { start; count = 1 + List.length regs }
        in
        { MB.transaction = 21; unit_id = 4; body })
      (pair (int_bound 5)
         (pair (int_bound 0xFFFF)
            (pair
               (list_size (int_bound 32) bool)
               (list_size (int_bound 32) (int_bound 0xFFFF))))))

let prop_modbus_request_truncation =
  QCheck.Test.make ~name:"modbus request truncation is Error, never raises"
    QCheck.(
      pair
        (make ~print:(fun f -> Format.asprintf "%a" MB.pp_request f.MB.body)
           gen_any_modbus_request)
        (QCheck.float_bound_inclusive 1.))
    (fun (f, frac) ->
      let s = MB.encode_request f in
      let cut =
        min (String.length s - 1)
          (int_of_float (frac *. float_of_int (String.length s)))
      in
      match MB.decode_request (String.sub s 0 cut) with
      | Ok _ -> false
      | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "decoder raised %s" (Printexc.to_string e))

let prop_modbus_request_bitflip_never_raises =
  QCheck.Test.make ~name:"modbus request bit flip never raises"
    QCheck.(
      pair
        (make ~print:(fun f -> Format.asprintf "%a" MB.pp_request f.MB.body)
           gen_any_modbus_request)
        (pair small_nat small_nat))
    (fun (f, (at_seed, bit_seed)) ->
      let s = Bytes.of_string (MB.encode_request f) in
      let at = at_seed mod Bytes.length s in
      let bit = bit_seed mod 8 in
      Bytes.set s at (Char.chr (Char.code (Bytes.get s at) lxor (1 lsl bit)));
      match MB.decode_request (Bytes.to_string s) with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "decoder raised %s" (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* DNP3 *)

let test_dnp3_roundtrip () =
  let cases =
    [
      D3.Poll_request;
      D3.Poll_response
        { binary_inputs = [ true; false; true ]; analog_inputs = [ 1; -5; 1 lsl 30 ] };
      D3.Operate { point = 2; action = D3.Trip };
      D3.Operate { point = 5; action = D3.Close };
      D3.Operate_ack { point = 2; success = true };
      D3.Operate_ack { point = 2; success = false };
    ]
  in
  List.iteri
    (fun i app ->
      let f = { D3.dest = 10; src = 0xF0; app } in
      match D3.decode (D3.encode f) with
      | Ok f' ->
        Alcotest.(check int) "dest" 10 f'.D3.dest;
        Alcotest.(check bool) "app" true (f.D3.app = f'.D3.app)
      | Error e -> Alcotest.failf "roundtrip %d failed: %s" i e)
    cases

let test_dnp3_checksum_rejects_corruption () =
  let f =
    {
      D3.dest = 4;
      src = 9;
      app = D3.Poll_response { binary_inputs = [ true ]; analog_inputs = [ 42 ] };
    }
  in
  let encoded = D3.encode f in
  (* Corrupt every body byte position in turn; all must be rejected. *)
  for at = 4 to String.length encoded - 3 do
    match D3.decode (D3.corrupt encoded ~at) with
    | Ok f' when f'.D3.app = f.D3.app -> Alcotest.failf "corruption at %d undetected" at
    | Ok _ | Error _ -> ()
  done

let prop_dnp3_poll_roundtrip =
  QCheck.Test.make ~name:"dnp3 poll response roundtrip"
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 0 16) bool)
        (list_of_size (QCheck.Gen.int_range 0 16) (int_range (-1000000) 1000000)))
    (fun (bins, anas) ->
      let f =
        { D3.dest = 1; src = 2; app = D3.Poll_response { binary_inputs = bins; analog_inputs = anas } }
      in
      match D3.decode (D3.encode f) with
      | Ok f' -> f'.D3.app = f.D3.app
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Op codec *)

let prop_op_roundtrip =
  QCheck.Test.make ~name:"scada op roundtrip" QCheck.(int_bound 3)
    (fun tag ->
      let rtu = make_rtu () in
      R.tick rtu;
      let op =
        match tag with
        | 0 -> Scada.Op.Status_report (R.read_status rtu)
        | 1 -> Scada.Op.Breaker_command { rtu = 3; breaker = 1; desired = R.Open }
        | 2 -> Scada.Op.Tap_command { rtu = 2; position = -7 }
        | _ -> Scada.Op.Hmi_read { hmi_id = 42 }
      in
      match Scada.Op.decode (Scada.Op.encode op) with
      | Ok op' -> op = op'
      | Error _ -> false)

let test_op_rejects_garbage () =
  Alcotest.(check bool) "empty" true (Result.is_error (Scada.Op.decode ""));
  Alcotest.(check bool) "bad tag" true (Result.is_error (Scada.Op.decode "\xFF"));
  Alcotest.(check bool) "truncated" true
    (Result.is_error (Scada.Op.decode "\x01\x00"))

(* ------------------------------------------------------------------ *)
(* Master *)

let test_master_applies_status () =
  let m = Scada.Master.create () in
  let rtu = make_rtu ~id:7 () in
  let s = R.read_status rtu in
  (match Scada.Master.apply m (Scada.Op.Status_report s) with
  | Scada.Master.No_effect -> ()
  | _ -> Alcotest.fail "status should have no effect");
  Alcotest.(check (list int)) "known rtus" [ 7 ] (Scada.Master.known_rtus m);
  match Scada.Master.last_status m ~rtu:7 with
  | Some s' -> Alcotest.(check int) "kept status" s.R.seq s'.R.seq
  | None -> Alcotest.fail "status lost"

let test_master_ignores_stale_status () =
  let m = Scada.Master.create () in
  let rtu = make_rtu ~id:7 () in
  let s1 = R.read_status rtu in
  let s2 = R.read_status rtu in
  ignore (Scada.Master.apply m (Scada.Op.Status_report s2));
  ignore (Scada.Master.apply m (Scada.Op.Status_report s1));
  match Scada.Master.last_status m ~rtu:7 with
  | Some s -> Alcotest.(check int) "newer kept" s2.R.seq s.R.seq
  | None -> Alcotest.fail "missing"

let test_master_breaker_command_effect () =
  let m = Scada.Master.create () in
  match
    Scada.Master.apply m
      (Scada.Op.Breaker_command { rtu = 3; breaker = 1; desired = R.Open })
  with
  | Scada.Master.Device_command { rtu = 3; command = D3.Operate { point = 1; action = D3.Trip } } ->
    Alcotest.(check bool) "intent recorded" true
      (Scada.Master.breaker_intent m ~rtu:3 ~breaker:1 = Some R.Open)
  | _ -> Alcotest.fail "expected trip command for rtu 3 point 1"

let test_master_determinism () =
  (* Two masters fed the same sequence have equal digests; diverging
     sequences have different digests. *)
  let ops =
    [
      Scada.Op.Breaker_command { rtu = 1; breaker = 0; desired = R.Open };
      Scada.Op.Tap_command { rtu = 1; position = 3 };
      Scada.Op.Hmi_read { hmi_id = 9 };
    ]
  in
  let a = Scada.Master.create () and b = Scada.Master.create () in
  List.iter (fun op -> ignore (Scada.Master.apply a op)) ops;
  List.iter (fun op -> ignore (Scada.Master.apply b op)) ops;
  Alcotest.(check bool) "same digest" true
    (Cryptosim.Digest.equal (Scada.Master.state_digest a) (Scada.Master.state_digest b));
  ignore (Scada.Master.apply b (Scada.Op.Hmi_read { hmi_id = 1 }));
  Alcotest.(check bool) "diverged digest" false
    (Cryptosim.Digest.equal (Scada.Master.state_digest a) (Scada.Master.state_digest b))

let test_master_stale_rtus () =
  let m = Scada.Master.create () in
  let rtu = make_rtu ~id:2 () in
  let s = R.read_status rtu in
  ignore (Scada.Master.apply m (Scada.Op.Status_report s));
  Alcotest.(check (list int)) "fresh" [] (Scada.Master.stale_rtus m ~now_seq:2 ~window:5);
  Alcotest.(check (list int)) "stale" [ 2 ]
    (Scada.Master.stale_rtus m ~now_seq:100 ~window:5)

(* ------------------------------------------------------------------ *)
(* Endpoint: threshold-signed confirmation flow *)

let test_endpoint_confirms_at_threshold () =
  let engine = Sim.Engine.create () in
  let group =
    Cryptosim.Threshold.create_group ~seed:3L ~members:[ 0; 1; 2; 3; 4; 5 ]
      ~threshold:2
  in
  let submitted = ref [] in
  let ep =
    Scada.Endpoint.create ~engine ~client_id:42 ~group
      ~resubmit_timeout_us:1_000_000
      ~submit:(fun ~attempt u -> submitted := (attempt, u) :: !submitted)
      ()
  in
  let latencies = ref [] in
  Scada.Endpoint.set_on_complete ep (fun _u ~latency_us ->
      latencies := latency_us :: !latencies);
  let u = Scada.Endpoint.send_op ep (Scada.Op.Hmi_read { hmi_id = 42 }) in
  Alcotest.(check int) "submitted once" 1 (List.length !submitted);
  let digest = Cryptosim.Digest.of_string "reply-digest" in
  let reply replica =
    {
      Scada.Reply.replica;
      update_key = Bft.Update.key u;
      exec_index = 1;
      digest;
      share = Cryptosim.Threshold.sign_share group ~member:replica digest;
      body = Scada.Reply.Ack;
    }
  in
  Alcotest.(check bool) "one share insufficient" true
    (Scada.Endpoint.handle_reply ep (reply 0) = None);
  Alcotest.(check bool) "second share confirms" true
    (Scada.Endpoint.handle_reply ep (reply 1) <> None);
  Alcotest.(check bool) "third share ignored (already confirmed)" true
    (Scada.Endpoint.handle_reply ep (reply 2) = None);
  Alcotest.(check int) "one completion" 1 (List.length !latencies);
  Alcotest.(check int) "completed count" 1 (Scada.Endpoint.completed_count ep)

let test_endpoint_corrupt_share_does_not_confirm () =
  let engine = Sim.Engine.create () in
  let group =
    Cryptosim.Threshold.create_group ~seed:3L ~members:[ 0; 1; 2 ] ~threshold:2
  in
  let ep =
    Scada.Endpoint.create ~engine ~client_id:1 ~group
      ~resubmit_timeout_us:1_000_000
      ~submit:(fun ~attempt:_ _ -> ())
      ()
  in
  let u = Scada.Endpoint.send_op ep (Scada.Op.Hmi_read { hmi_id = 1 }) in
  let digest = Cryptosim.Digest.of_string "d" in
  let good =
    {
      Scada.Reply.replica = 0;
      update_key = Bft.Update.key u;
      exec_index = 1;
      digest;
      share = Cryptosim.Threshold.sign_share group ~member:0 digest;
      body = Scada.Reply.Ack;
    }
  in
  let bad =
    {
      good with
      Scada.Reply.replica = 1;
      share =
        Cryptosim.Threshold.corrupt_share
          (Cryptosim.Threshold.sign_share group ~member:1 digest);
    }
  in
  Alcotest.(check bool) "good share alone" true
    (Scada.Endpoint.handle_reply ep good = None);
  Alcotest.(check bool) "corrupt share rejected" true
    (Scada.Endpoint.handle_reply ep bad = None)

let test_endpoint_resubmits_on_timeout () =
  let engine = Sim.Engine.create () in
  let group =
    Cryptosim.Threshold.create_group ~seed:3L ~members:[ 0; 1 ] ~threshold:1
  in
  let attempts = ref [] in
  let ep =
    Scada.Endpoint.create ~engine ~client_id:1 ~group ~resubmit_timeout_us:100_000
      ~submit:(fun ~attempt _ -> attempts := attempt :: !attempts)
      ()
  in
  Scada.Endpoint.start ep;
  ignore (Scada.Endpoint.send_op ep (Scada.Op.Hmi_read { hmi_id = 1 }));
  Sim.Engine.run engine ~until_us:350_000;
  Alcotest.(check bool) "retransmitted" true (List.length !attempts >= 2);
  Alcotest.(check bool) "attempt counter grows" true (List.hd !attempts >= 1);
  Alcotest.(check int) "resubmit count matches" (List.length !attempts - 1)
    (Scada.Endpoint.resubmit_count ep)

(* ------------------------------------------------------------------ *)
(* Proxy: poll loop over DNP3 and command actuation *)

let test_proxy_polls_and_reports () =
  let engine = Sim.Engine.create () in
  let group =
    Cryptosim.Threshold.create_group ~seed:3L ~members:[ 0; 1 ] ~threshold:1
  in
  let rtu = make_rtu ~id:3 () in
  let submitted = ref [] in
  let proxy =
    Scada.Proxy.create ~engine ~rtu ~client_id:3 ~poll_interval_us:100_000
      ~group ~resubmit_timeout_us:10_000_000
      ~submit:(fun ~attempt:_ u -> submitted := u :: !submitted)
      ()
  in
  Scada.Proxy.start proxy;
  Sim.Engine.run engine ~until_us:1_050_000;
  Alcotest.(check int) "10 polls" 10 (Scada.Proxy.polls_sent proxy);
  Alcotest.(check int) "10 submissions" 10 (List.length !submitted);
  (* Every submission decodes to a status report for this RTU. *)
  List.iter
    (fun u ->
      match Scada.Op.of_update u with
      | Ok (Scada.Op.Status_report s) -> Alcotest.(check int) "rtu id" 3 s.R.rtu_id
      | Ok _ | Error _ -> Alcotest.fail "expected status report")
    !submitted

let test_proxy_actuates_confirmed_command () =
  let engine = Sim.Engine.create () in
  let group =
    Cryptosim.Threshold.create_group ~seed:3L ~members:[ 0; 1 ] ~threshold:2
  in
  let rtu = make_rtu ~id:3 () in
  let proxy =
    Scada.Proxy.create ~engine ~rtu ~client_id:3 ~poll_interval_us:100_000
      ~group ~resubmit_timeout_us:10_000_000
      ~submit:(fun ~attempt:_ _ -> ())
      ()
  in
  (* The proxy submits something so an update is pending; replicas
     confirm it with an embedded trip command. *)
  Scada.Proxy.start proxy;
  Sim.Engine.run engine ~until_us:150_000;
  let u =
    match Scada.Proxy.polls_sent proxy with
    | 0 -> Alcotest.fail "no poll sent"
    | _ ->
      (* Reconstruct the pending update the proxy submitted. *)
      Scada.Endpoint.send_op (Scada.Proxy.endpoint proxy)
        (Scada.Op.Hmi_read { hmi_id = 3 })
  in
  let frame =
    D3.encode
      { D3.dest = 3; src = 0xF0; app = D3.Operate { point = 0; action = D3.Trip } }
  in
  let digest = Cryptosim.Digest.of_string "cmd-digest" in
  let reply replica =
    {
      Scada.Reply.replica;
      update_key = Bft.Update.key u;
      exec_index = 2;
      digest;
      share = Cryptosim.Threshold.sign_share group ~member:replica digest;
      body = Scada.Reply.Command { rtu = 3; frame };
    }
  in
  Scada.Proxy.handle_reply proxy (reply 0);
  Alcotest.(check int) "not actuated below threshold" 0
    (Scada.Proxy.commands_applied proxy);
  Scada.Proxy.handle_reply proxy (reply 1);
  Alcotest.(check int) "actuated once confirmed" 1
    (Scada.Proxy.commands_applied proxy);
  (* The breaker physically opens after the mechanical delay. *)
  R.tick rtu;
  R.tick rtu;
  Alcotest.(check bool) "breaker open" true (R.breaker rtu ~index:0 = R.Open)

let test_modbus_proxy_polls_and_reports () =
  let engine = Sim.Engine.create () in
  let group =
    Cryptosim.Threshold.create_group ~seed:3L ~members:[ 0; 1 ] ~threshold:1
  in
  let rtu = make_rtu ~id:5 () in
  let submitted = ref [] in
  let proxy =
    Scada.Proxy.create ~field_protocol:`Modbus ~engine ~rtu ~client_id:5
      ~poll_interval_us:100_000 ~group ~resubmit_timeout_us:10_000_000
      ~submit:(fun ~attempt:_ u -> submitted := u :: !submitted)
      ()
  in
  Alcotest.(check bool) "protocol recorded" true
    (Scada.Proxy.field_protocol proxy = `Modbus);
  Scada.Proxy.start proxy;
  Sim.Engine.run engine ~until_us:550_000;
  Alcotest.(check int) "5 polls over modbus" 5 (List.length !submitted);
  (* The register map round-trips into a faithful status. *)
  List.iter
    (fun u ->
      match Scada.Op.of_update u with
      | Ok (Scada.Op.Status_report s) ->
        Alcotest.(check int) "rtu id" 5 s.R.rtu_id;
        Alcotest.(check int) "breaker count" 4 (Array.length s.R.breakers);
        Alcotest.(check int) "feeder count" 3 (Array.length s.R.voltages_mv);
        Alcotest.(check bool) "voltage plausible" true
          (s.R.voltages_mv.(0) > 13_000_000 && s.R.voltages_mv.(0) < 14_600_000);
        Alcotest.(check bool) "frequency plausible" true
          (s.R.frequency_mhz > 59_800 && s.R.frequency_mhz < 60_200)
      | Ok _ | Error _ -> Alcotest.fail "expected status report")
    !submitted

let test_modbus_proxy_gateways_dnp3_command () =
  (* The master's DNP3 operate frame is translated to a Modbus coil
     write by the proxy. *)
  let engine = Sim.Engine.create () in
  let group =
    Cryptosim.Threshold.create_group ~seed:3L ~members:[ 0; 1 ] ~threshold:2
  in
  let rtu = make_rtu ~id:5 () in
  let proxy =
    Scada.Proxy.create ~field_protocol:`Modbus ~engine ~rtu ~client_id:5
      ~poll_interval_us:100_000 ~group ~resubmit_timeout_us:10_000_000
      ~submit:(fun ~attempt:_ _ -> ())
      ()
  in
  let frame =
    D3.encode
      { D3.dest = 5; src = 0xF0; app = D3.Operate { point = 2; action = D3.Trip } }
  in
  let digest = Cryptosim.Digest.of_string "mb-cmd" in
  let reply replica =
    {
      Scada.Reply.replica;
      update_key = (99, 1);
      exec_index = 7;
      digest;
      share = Cryptosim.Threshold.sign_share group ~member:replica digest;
      body = Scada.Reply.Command { rtu = 5; frame };
    }
  in
  Scada.Proxy.handle_reply proxy (reply 0);
  Scada.Proxy.handle_reply proxy (reply 1);
  Alcotest.(check int) "gatewayed once" 1 (Scada.Proxy.commands_applied proxy);
  R.tick rtu;
  R.tick rtu;
  Alcotest.(check bool) "breaker tripped via modbus write" true
    (R.breaker rtu ~index:2 = R.Open)

(* The reply digest before streaming, kept as the oracle. *)
let old_body_digest ~exec_index ~update_digest ~state ~body =
  let body_str =
    match body with
    | Scada.Reply.Ack -> "ack"
    | Scada.Reply.Command { rtu; frame } -> "cmd:" ^ string_of_int rtu ^ ":" ^ frame
  in
  Cryptosim.Digest.combine
    (Cryptosim.Digest.of_string ("reply:" ^ string_of_int exec_index ^ ":" ^ body_str))
    (Cryptosim.Digest.combine update_digest state)

let prop_reply_digest_matches_old =
  QCheck.Test.make ~count:500 ~name:"reply body digest = old formulation"
    QCheck.(quad int (option (pair int string)) string string)
    (fun (exec_index, cmd, u, s) ->
      let body =
        match cmd with
        | None -> Scada.Reply.Ack
        | Some (rtu, frame) -> Scada.Reply.Command { rtu; frame }
      in
      let update_digest = Cryptosim.Digest.of_string u
      and state = Cryptosim.Digest.of_string s in
      Cryptosim.Digest.equal
        (Scada.Reply.body_digest ~exec_index ~update_digest ~state ~body)
        (old_body_digest ~exec_index ~update_digest ~state ~body))

let () =
  Alcotest.run "scada"
    [
      ( "rtu",
        [
          Alcotest.test_case "initial state" `Quick test_rtu_initial_state;
          Alcotest.test_case "breaker delay" `Quick test_rtu_breaker_operation_delayed;
          Alcotest.test_case "open drops current" `Quick
            test_rtu_open_breaker_drops_current;
          Alcotest.test_case "status seq" `Quick test_rtu_status_seq_increments;
          Alcotest.test_case "analog bounds" `Quick test_rtu_analog_within_bounds;
          Alcotest.test_case "tap clamped" `Quick test_rtu_tap_clamped;
          QCheck_alcotest.to_alcotest prop_rtu_soak_stays_in_envelope;
        ] );
      ( "modbus",
        [
          Alcotest.test_case "request roundtrip" `Quick test_modbus_request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick
            test_modbus_response_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_modbus_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_modbus_coils_roundtrip;
          QCheck_alcotest.to_alcotest prop_modbus_registers_roundtrip;
          QCheck_alcotest.to_alcotest prop_modbus_new_requests_roundtrip;
          QCheck_alcotest.to_alcotest prop_modbus_new_responses_roundtrip;
          Alcotest.test_case "new exception responses" `Quick
            test_modbus_new_exception_responses;
          Alcotest.test_case "multi-write caps" `Quick test_modbus_multi_write_caps;
          QCheck_alcotest.to_alcotest prop_modbus_request_truncation;
          QCheck_alcotest.to_alcotest prop_modbus_request_bitflip_never_raises;
        ] );
      ( "dnp3",
        [
          Alcotest.test_case "roundtrip" `Quick test_dnp3_roundtrip;
          Alcotest.test_case "checksum rejects corruption" `Quick
            test_dnp3_checksum_rejects_corruption;
          QCheck_alcotest.to_alcotest prop_dnp3_poll_roundtrip;
        ] );
      ( "op",
        [
          QCheck_alcotest.to_alcotest prop_op_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_op_rejects_garbage;
        ] );
      ( "master",
        [
          Alcotest.test_case "applies status" `Quick test_master_applies_status;
          Alcotest.test_case "ignores stale" `Quick test_master_ignores_stale_status;
          Alcotest.test_case "command effect" `Quick test_master_breaker_command_effect;
          Alcotest.test_case "determinism" `Quick test_master_determinism;
          Alcotest.test_case "stale rtus" `Quick test_master_stale_rtus;
        ] );
      ( "endpoint",
        [
          Alcotest.test_case "threshold confirmation" `Quick
            test_endpoint_confirms_at_threshold;
          Alcotest.test_case "corrupt share" `Quick
            test_endpoint_corrupt_share_does_not_confirm;
          Alcotest.test_case "resubmission" `Quick test_endpoint_resubmits_on_timeout;
          QCheck_alcotest.to_alcotest prop_reply_digest_matches_old;
        ] );
      ( "proxy",
        [
          Alcotest.test_case "polls and reports" `Quick test_proxy_polls_and_reports;
          Alcotest.test_case "actuates confirmed command" `Quick
            test_proxy_actuates_confirmed_command;
          Alcotest.test_case "modbus proxy polls" `Quick
            test_modbus_proxy_polls_and_reports;
          Alcotest.test_case "modbus proxy gateways commands" `Quick
            test_modbus_proxy_gateways_dnp3_command;
        ] );
    ]
