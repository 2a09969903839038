(* Wire-layer tests: qcheck round-trip properties for every codec,
   truncation / bit-flip fuzzing (decoders are total — Error, never an
   exception), envelope authentication, junk undecodability, and a
   short end-to-end system run with decode-on-delivery enabled. *)

module G = QCheck.Gen

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

let gen_bytes = G.string_size ~gen:G.char (G.int_bound 40)

let gen_int64 =
  G.map2
    (fun i b ->
      let v = Int64.of_int i in
      if b then Int64.lognot v else v)
    G.int G.bool

let gen_digest = G.map Cryptosim.Digest.of_int64 gen_int64
let gen_u16 = G.int_bound 0xffff
let gen_u32 = G.int_bound 0xffff_ffff

let gen_update =
  G.map
    (fun (client, client_seq, operation, submitted_us) ->
      Bft.Update.create ~client ~client_seq ~operation ~submitted_us)
    (G.quad gen_u16 gen_u32 gen_bytes (G.int_bound 1_000_000_000))

let gen_vector = G.array_size (G.int_bound 6) gen_u32
let gen_matrix = G.array_size (G.int_bound 5) gen_vector

let gen_prime_prepared =
  G.map
    (fun (entry_seq, entry_view, entry_matrix) ->
      { Prime.Msg.entry_seq; entry_view; entry_matrix })
    (G.triple gen_u32 gen_u32 gen_matrix)

let gen_prime =
  G.oneof
    [
      G.map
        (fun (origin, po_seq, update) ->
          Prime.Msg.Po_request { origin; po_seq; update })
        (G.triple gen_u16 gen_u32 gen_update);
      G.map
        (fun (origin, first_seq, updates) ->
          Prime.Msg.Po_batch { origin; first_seq; updates })
        (G.triple gen_u16 gen_u32 (G.list_size (G.int_bound 4) gen_update));
      G.map (fun vector -> Prime.Msg.Po_aru { vector }) gen_vector;
      G.map
        (fun (view, seq, matrix) -> Prime.Msg.Preprepare { view; seq; matrix })
        (G.triple gen_u32 gen_u32 gen_matrix);
      G.map
        (fun (view, seq, digest) -> Prime.Msg.Prepare { view; seq; digest })
        (G.triple gen_u32 gen_u32 gen_digest);
      G.map
        (fun (view, seq, digest) -> Prime.Msg.Commit { view; seq; digest })
        (G.triple gen_u32 gen_u32 gen_digest);
      G.map (fun view -> Prime.Msg.Suspect { view }) gen_u32;
      G.map
        (fun (new_view, last_committed, prepared) ->
          Prime.Msg.Viewchange { new_view; last_committed; prepared })
        (G.triple gen_u32 gen_u32 (G.list_size (G.int_bound 3) gen_prime_prepared));
      G.map
        (fun (view, proposals) -> Prime.Msg.Newview { view; proposals })
        (G.pair gen_u32
           (G.list_size (G.int_bound 3) (G.pair gen_u32 gen_matrix)));
      G.map
        (fun (origin, po_seq) -> Prime.Msg.Recon_request { origin; po_seq })
        (G.pair gen_u16 gen_u32);
      G.map
        (fun (origin, po_seq, update) ->
          Prime.Msg.Recon_reply { origin; po_seq; update })
        (G.triple gen_u16 gen_u32 gen_update);
      G.map (fun seq -> Prime.Msg.Slot_request { seq }) gen_u32;
      G.map
        (fun (seq, matrix) -> Prime.Msg.Slot_reply { seq; matrix })
        (G.pair gen_u32 gen_matrix);
      G.map
        (fun (executed, chain) -> Prime.Msg.Checkpoint { executed; chain })
        (G.pair gen_u32 gen_digest);
    ]

let gen_proposal =
  G.map
    (fun (seq, updates) -> { Pbft.Msg.seq; updates })
    (G.pair gen_u32 (G.list_size (G.int_bound 3) gen_update))

let gen_pbft_prepared =
  G.map
    (fun (entry_seq, entry_view, entry_updates) ->
      { Pbft.Msg.entry_seq; entry_view; entry_updates })
    (G.triple gen_u32 gen_u32 (G.list_size (G.int_bound 3) gen_update))

let gen_pbft =
  G.oneof
    [
      G.map
        (fun (update, broadcast) -> Pbft.Msg.Request { update; broadcast })
        (G.pair gen_update G.bool);
      G.map
        (fun (view, proposal) -> Pbft.Msg.Preprepare { view; proposal })
        (G.pair gen_u32 gen_proposal);
      G.map
        (fun (view, seq, digest) -> Pbft.Msg.Prepare { view; seq; digest })
        (G.triple gen_u32 gen_u32 gen_digest);
      G.map
        (fun (view, seq, digest) -> Pbft.Msg.Commit { view; seq; digest })
        (G.triple gen_u32 gen_u32 gen_digest);
      G.map
        (fun (seq, chain) -> Pbft.Msg.Checkpoint { seq; chain })
        (G.pair gen_u32 gen_digest);
      G.map
        (fun (new_view, last_stable, prepared) ->
          Pbft.Msg.Viewchange { new_view; last_stable; prepared })
        (G.triple gen_u32 gen_u32 (G.list_size (G.int_bound 4) gen_pbft_prepared));
      G.map
        (fun (view, proposals, stable_seq) ->
          Pbft.Msg.Newview { view; proposals; stable_seq })
        (G.triple gen_u32 (G.list_size (G.int_bound 4) gen_proposal) gen_u32);
    ]

let gen_share =
  G.map
    (fun (member, digest, tag) ->
      Cryptosim.Threshold.share_of_repr ~member ~digest ~tag)
    (G.triple gen_u16 gen_digest gen_digest)

let gen_reply_body =
  G.oneof
    [
      G.return Scada.Reply.Ack;
      G.map
        (fun (rtu, frame) -> Scada.Reply.Command { rtu; frame })
        (G.pair gen_u16 gen_bytes);
    ]

let gen_reply =
  G.map
    (fun ((replica, key_client, key_seq), (exec_index, digest, share, body)) ->
      {
        Scada.Reply.replica;
        update_key = (key_client, key_seq);
        exec_index;
        digest;
        share;
        body;
      })
    (G.pair
       (G.triple gen_u16 gen_u16 gen_u32)
       (G.quad gen_u32 gen_digest gen_share gen_reply_body))

let gen_chunk =
  G.map
    (fun ((xfer_id, chunk_index, chunk_count), (total_digest, data)) ->
      {
        Recovery.State_transfer.xfer_id;
        chunk_index;
        chunk_count;
        total_digest;
        data;
      })
    (G.pair (G.triple gen_u32 gen_u32 gen_u32) (G.pair gen_digest gen_bytes))

let gen_role =
  G.oneofl [ Member.Cert.Active_cc; Member.Cert.Backup_cc; Member.Cert.Data_center ]

let gen_site =
  G.map
    (fun (site_id, role, members) -> { Member.Cert.site_id; role; members })
    (G.triple gen_u16 gen_role (G.list_size (G.int_bound 4) gen_u16))

(* Arbitrary (not necessarily valid) certificates: the codec is a pure
   structural round-trip; validity is the Member layer's concern. *)
let gen_cert =
  G.map
    (fun ((epoch, f, k), (boundary_exec, sites, signers, prev_digest)) ->
      {
        Member.Cert.epoch;
        f;
        k;
        boundary_exec;
        sites;
        signers;
        prev_digest;
      })
    (G.pair
       (G.triple gen_u32 gen_u16 gen_u16)
       (G.quad gen_u32
          (G.list_size (G.int_bound 4) gen_site)
          (G.list_size (G.int_bound 6) gen_u16)
          gen_digest))

let gen_u8 = G.int_bound 0xff

let gen_field_advert =
  G.map
    (fun ((concentrator, device, map_digest), (di, co, ir, hr)) ->
      {
        Scada.Field_frame.concentrator;
        device;
        discrete_inputs = di;
        coils = co;
        input_registers = ir;
        holding_registers = hr;
        map_digest;
      })
    (G.pair
       (G.triple gen_u16 gen_u32 gen_digest)
       (G.quad gen_u8 gen_u8 gen_u8 gen_u8))

let gen_field_event =
  G.map
    (fun ((table, address), value) ->
      let table =
        Option.get (Scada.Field_frame.table_of_int (table land 3))
      in
      { Scada.Field_frame.table; address; value })
    (G.pair (G.pair gen_u8 gen_u16) gen_u16)

let gen_field_report =
  G.map
    (fun ((concentrator, device, seq), events) ->
      { Scada.Field_frame.concentrator; device; seq; events })
    (G.pair
       (G.triple gen_u16 gen_u32 gen_u32)
       (G.list_size (G.int_bound 6) gen_field_event))

let gen_inner_message =
  G.oneof
    [
      G.map
        (fun (sender, m) -> Wire.Message.Prime_msg (sender, m))
        (G.pair gen_u16 gen_prime);
      G.map
        (fun (sender, m) -> Wire.Message.Pbft_msg (sender, m))
        (G.pair gen_u16 gen_pbft);
      G.map (fun u -> Wire.Message.Client_update u) gen_update;
      G.map
        (fun us -> Wire.Message.Client_batch us)
        (G.list_size (G.int_bound 4) gen_update);
      G.map (fun r -> Wire.Message.Replica_reply r) gen_reply;
      G.map
        (fun rs -> Wire.Message.Reply_batch rs)
        (G.list_size (G.int_bound 4) gen_reply);
      G.map (fun c -> Wire.Message.Transfer_chunk c) gen_chunk;
      G.map (fun a -> Wire.Message.Field_advert a) gen_field_advert;
      G.map (fun r -> Wire.Message.Field_report r) gen_field_report;
    ]

let gen_message =
  G.oneof
    [
      gen_inner_message;
      (* One level of epoch wrapping, as the system produces. *)
      G.map
        (fun (e, inner) -> Wire.Message.Epoch_frame (e, inner))
        (G.pair gen_u32 gen_inner_message);
      G.map (fun c -> Wire.Message.Cert_frame c) gen_cert;
    ]

let arb gen pp = QCheck.make ~print:(Format.asprintf "%a" pp) gen

let pp_error ppf (e : Wire.Rw.error) =
  Format.pp_print_string ppf (Wire.Rw.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Round trips                                                         *)

let roundtrip ~name gen pp encode decode =
  QCheck.Test.make ~count:300 ~name (arb gen pp) (fun v ->
      match decode (encode v) with
      | Ok v' -> v' = v
      | Error e -> QCheck.Test.fail_reportf "decode error: %a" pp_error e)

let prop_update_roundtrip =
  roundtrip ~name:"update codec roundtrip" gen_update Bft.Update.pp
    Wire.Codec.encode_update Wire.Codec.decode_update

let prop_prime_roundtrip =
  roundtrip ~name:"prime msg codec roundtrip" gen_prime Prime.Msg.pp
    Wire.Codec.encode_prime Wire.Codec.decode_prime

let prop_pbft_roundtrip =
  roundtrip ~name:"pbft msg codec roundtrip" gen_pbft Pbft.Msg.pp
    Wire.Codec.encode_pbft Wire.Codec.decode_pbft

let prop_reply_roundtrip =
  roundtrip ~name:"replica reply codec roundtrip" gen_reply Scada.Reply.pp
    Wire.Codec.encode_reply Wire.Codec.decode_reply

let prop_chunk_roundtrip =
  roundtrip ~name:"state-transfer chunk codec roundtrip" gen_chunk
    (fun ppf c ->
      Format.fprintf ppf "chunk %d/%d" c.Recovery.State_transfer.chunk_index
        c.Recovery.State_transfer.chunk_count)
    Wire.Codec.encode_chunk Wire.Codec.decode_chunk

let gen_op =
  G.oneof
    [
      G.map
        (fun (rtu, breaker, desired) ->
          Scada.Op.Breaker_command
            {
              rtu;
              breaker;
              desired = (if desired then Scada.Rtu.Closed else Scada.Rtu.Open);
            })
        (G.triple (G.int_bound 200) (G.int_bound 16) G.bool);
      G.map
        (fun (rtu, position) -> Scada.Op.Tap_command { rtu; position })
        (G.pair (G.int_bound 200) (G.int_bound 32));
      G.map (fun hmi_id -> Scada.Op.Hmi_read { hmi_id }) (G.int_bound 200);
    ]

let prop_op_roundtrip =
  roundtrip ~name:"scada op codec roundtrip" gen_op Scada.Op.pp
    Wire.Codec.encode_op Wire.Codec.decode_op

let prop_message_roundtrip =
  roundtrip ~name:"message union codec roundtrip" gen_message Wire.Message.pp
    Wire.Message.encode Wire.Message.decode

let prop_envelope_roundtrip =
  QCheck.Test.make ~count:300 ~name:"envelope roundtrip (sender + message)"
    (arb (G.pair gen_u16 gen_message) (fun ppf (s, m) ->
         Format.fprintf ppf "sender=%d %a" s Wire.Message.pp m))
    (fun (sender, msg) ->
      match Wire.Envelope.decode (Wire.Envelope.encode ~sender msg) with
      | Ok env ->
        env.Wire.Envelope.sender = sender
        && Wire.Message.equal env.Wire.Envelope.message msg
        && env.Wire.Envelope.scheme = Wire.Envelope.scheme_of msg
      | Error e -> QCheck.Test.fail_reportf "decode error: %a" pp_error e)

let prop_encoding_deterministic =
  QCheck.Test.make ~count:200 ~name:"encoding is deterministic"
    (arb gen_message Wire.Message.pp) (fun msg ->
      String.equal (Wire.Message.encode msg) (Wire.Message.encode msg)
      && String.equal
           (Wire.Envelope.encode ~sender:3 msg)
           (Wire.Envelope.encode ~sender:3 msg))

let prop_envelope_size_accounts_overhead =
  QCheck.Test.make ~count:200
    ~name:"envelope size = body + header + authenticator"
    (arb (G.pair gen_u16 gen_message) (fun ppf (s, m) ->
         Format.fprintf ppf "sender=%d %a" s Wire.Message.pp m))
    (fun (sender, msg) ->
      Wire.Envelope.size ~sender msg
      = String.length (Wire.Message.encode msg)
        + Wire.Envelope.overhead (Wire.Envelope.scheme_of msg))

(* ------------------------------------------------------------------ *)
(* Measure law: the direct size computation used on the send hot path
   must equal the length of the actual encoding, for every codec and
   every constructor the generators can reach.                          *)

let measure_law ~name gen pp measure encode =
  QCheck.Test.make ~count:500 ~name (arb gen pp) (fun v ->
      measure v = String.length (encode v))

let prop_measure_update =
  measure_law ~name:"measure law: update" gen_update Bft.Update.pp
    Wire.Measure.update Wire.Codec.encode_update

let prop_measure_prime =
  measure_law ~name:"measure law: prime msg" gen_prime Prime.Msg.pp
    Wire.Measure.prime Wire.Codec.encode_prime

let prop_measure_pbft =
  measure_law ~name:"measure law: pbft msg" gen_pbft Pbft.Msg.pp
    Wire.Measure.pbft Wire.Codec.encode_pbft

let prop_measure_reply =
  measure_law ~name:"measure law: replica reply" gen_reply Scada.Reply.pp
    Wire.Measure.reply Wire.Codec.encode_reply

let prop_measure_chunk =
  measure_law ~name:"measure law: transfer chunk" gen_chunk
    (fun ppf c ->
      Format.fprintf ppf "chunk %d/%d" c.Recovery.State_transfer.chunk_index
        c.Recovery.State_transfer.chunk_count)
    Wire.Measure.chunk Wire.Codec.encode_chunk

let prop_measure_message =
  measure_law ~name:"measure law: message union" gen_message Wire.Message.pp
    Wire.Measure.message Wire.Message.encode

let prop_measure_envelope =
  QCheck.Test.make ~count:500 ~name:"measure law: size msg = length (encode msg)"
    (arb (G.pair gen_u16 gen_message) (fun ppf (s, m) ->
         Format.fprintf ppf "sender=%d %a" s Wire.Message.pp m))
    (fun (sender, msg) ->
      Wire.Envelope.size ~sender msg
      = String.length (Wire.Envelope.encode ~sender msg))

(* A field report's frame is charged from its event count alone; up to
   16 events covers the 14 a device can raise in one tick. *)
let prop_field_report_size =
  QCheck.Test.make ~count:500
    ~name:"measure law: field_report_size ~events = size (Field_report r)"
    (arb
       (G.pair gen_u16
          (G.map2
             (fun r events -> { r with Scada.Field_frame.events })
             gen_field_report
             (G.list_size (G.int_bound 16) gen_field_event)))
       (fun ppf (s, r) -> Format.fprintf ppf "sender=%d %a" s Scada.Field_frame.pp_report r))
    (fun (sender, r) ->
      let msg = Wire.Message.Field_report r in
      let events = List.length r.Scada.Field_frame.events in
      let size = Wire.Envelope.field_report_size ~events in
      size = Wire.Envelope.size ~sender msg
      && size = String.length (Wire.Envelope.encode ~sender msg))

(* An advert is charged at one constant size, whatever its ids,
   geometry and digest. *)
let prop_field_advert_size =
  QCheck.Test.make ~count:500
    ~name:"measure law: field_advert_size = size (Field_advert a)"
    (arb (G.pair gen_u16 gen_field_advert) (fun ppf (s, a) ->
         Format.fprintf ppf "sender=%d %a" s Scada.Field_frame.pp_advert a))
    (fun (sender, a) ->
      let msg = Wire.Message.Field_advert a in
      let size = Wire.Envelope.field_advert_size in
      size = Wire.Envelope.size ~sender msg
      && size = String.length (Wire.Envelope.encode ~sender msg))

let test_kind_index_table () =
  Alcotest.(check int) "kind_count" 29 Wire.Message.kind_count;
  let names =
    List.init Wire.Message.kind_count Wire.Message.kind_name
  in
  Alcotest.(check int) "kind names distinct"
    Wire.Message.kind_count
    (List.length (List.sort_uniq compare names))

let prop_kind_index_consistent =
  QCheck.Test.make ~count:300 ~name:"kind m = kind_name (kind_index m)"
    (arb gen_message Wire.Message.pp) (fun m ->
      let k = Wire.Message.kind_index m in
      k >= 0
      && k < Wire.Message.kind_count
      && String.equal (Wire.Message.kind m) (Wire.Message.kind_name k))

(* ------------------------------------------------------------------ *)
(* Fuzz: truncation, bit flips, junk — decoders must return Error and
   must never raise.                                                   *)

let decode_is_error_never_raises decode s =
  match decode s with
  | Ok _ -> false
  | Error _ -> true
  | exception e ->
    QCheck.Test.fail_reportf "decoder raised %s" (Printexc.to_string e)

let prop_envelope_truncation =
  QCheck.Test.make ~count:300 ~name:"any strict prefix of a frame is Error"
    (arb
       (G.triple gen_u16 gen_message (G.float_bound_inclusive 1.))
       (fun ppf (s, m, f) ->
         Format.fprintf ppf "sender=%d cut=%.2f %a" s f Wire.Message.pp m))
    (fun (sender, msg, frac) ->
      let s = Wire.Envelope.encode ~sender msg in
      let cut = min (String.length s - 1) (int_of_float (frac *. float_of_int (String.length s))) in
      decode_is_error_never_raises Wire.Envelope.decode (String.sub s 0 cut))

let prop_message_truncation =
  QCheck.Test.make ~count:300 ~name:"any strict prefix of a body is Error"
    (arb
       (G.pair gen_message (G.float_bound_inclusive 1.))
       (fun ppf (m, f) -> Format.fprintf ppf "cut=%.2f %a" f Wire.Message.pp m))
    (fun (msg, frac) ->
      let s = Wire.Message.encode msg in
      let cut = min (String.length s - 1) (int_of_float (frac *. float_of_int (String.length s))) in
      decode_is_error_never_raises Wire.Message.decode (String.sub s 0 cut))

let prop_envelope_bitflip =
  QCheck.Test.make ~count:500
    ~name:"single bit flip anywhere in a frame is detected"
    (arb
       (G.triple gen_u16 gen_message (G.pair G.int G.int))
       (fun ppf (s, m, _) -> Format.fprintf ppf "sender=%d %a" s Wire.Message.pp m))
    (fun (sender, msg, (at_seed, bit_seed)) ->
      let s = Wire.Envelope.encode ~sender msg in
      let at = abs at_seed mod String.length s in
      let bit = 1 lsl (abs bit_seed mod 8) in
      let b = Bytes.of_string s in
      Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor bit));
      decode_is_error_never_raises Wire.Envelope.decode (Bytes.to_string b))

let never_raises_on_arbitrary_bytes =
  QCheck.Test.make ~count:1000 ~name:"decoders never raise on arbitrary bytes"
    (QCheck.make ~print:String.escaped (G.string_size ~gen:G.char (G.int_bound 80)))
    (fun s ->
      let total decode = match decode s with Ok _ | Error _ -> true in
      (try
         total Wire.Envelope.decode && total Wire.Message.decode
         && total Wire.Codec.decode_update
         && total Wire.Codec.decode_prime && total Wire.Codec.decode_pbft
         && total Wire.Codec.decode_reply && total Wire.Codec.decode_chunk
         && total Wire.Codec.decode_op
       with e ->
         QCheck.Test.fail_reportf "decoder raised %s" (Printexc.to_string e)))

let test_junk_is_undecodable () =
  let rng = Sim.Rng.create 0xBADF00DL in
  let rand = Sim.Rng.int rng in
  for _ = 1 to 200 do
    let size_bytes = 1 + rand 300 in
    (match Wire.Envelope.decode (Wire.Junk.undecodable ~rand ~size_bytes) with
    | Ok _ -> Alcotest.fail "random junk decoded as a valid frame"
    | Error _ -> ());
    match
      Wire.Envelope.decode
        (Wire.Junk.spoofed_header ~rand ~size_bytes:(size_bytes + 3))
    with
    | Ok _ -> Alcotest.fail "spoofed-header junk decoded as a valid frame"
    | Error _ -> ()
  done

(* A batch header claiming thousands of elements with almost no body
   must be rejected by the count-vs-remaining-bytes bound check, not
   allocated. *)
let test_lying_batch_is_rejected () =
  let rng = Sim.Rng.create 0xFEEDL in
  let rand = Sim.Rng.int rng in
  for _ = 1 to 200 do
    match Wire.Message.decode (Wire.Junk.lying_batch ~rand) with
    | Ok _ -> Alcotest.fail "lying batch count decoded as a valid message"
    | Error _ -> ()
  done

let test_corrupt_flips_one_bit () =
  let rng = Sim.Rng.create 7L in
  let rand = Sim.Rng.int rng in
  let s = String.make 32 'x' in
  for _ = 1 to 50 do
    let s' = Wire.Junk.corrupt ~rand s in
    let diff_bits = ref 0 in
    String.iteri
      (fun i c ->
        let x = Char.code c lxor Char.code s'.[i] in
        for b = 0 to 7 do
          if x land (1 lsl b) <> 0 then incr diff_bits
        done)
      s;
    Alcotest.(check int) "exactly one bit differs" 1 !diff_bits
  done

(* ------------------------------------------------------------------ *)
(* Envelope structure                                                  *)

(* The authenticator before streaming, kept as the oracle: the 8 tag
   bytes after the body are the digest of ["env:%d:%d:%s"]. *)
let prop_envelope_tag_matches_old =
  QCheck.Test.make ~count:300 ~name:"envelope tag = old formulation"
    (arb (G.pair gen_u16 gen_message) (fun ppf (s, m) ->
         Format.fprintf ppf "sender=%d %a" s Wire.Message.pp m))
    (fun (sender, msg) ->
      let frame = Wire.Envelope.encode ~sender msg in
      let body = Wire.Message.encode msg in
      let tag =
        String.get_int64_be frame (Wire.Envelope.header_bytes + String.length body)
      in
      let expected =
        Cryptosim.Digest.of_string
          (Printf.sprintf "env:%d:%d:%s" (Char.code frame.[3]) sender body)
      in
      Int64.equal tag (Cryptosim.Digest.to_int64 expected))

let test_envelope_layout () =
  let msg = Wire.Message.Client_update
      (Bft.Update.create ~client:2 ~client_seq:5 ~operation:"op"
         ~submitted_us:1000)
  in
  let s = Wire.Envelope.encode ~sender:9 msg in
  Alcotest.(check char) "magic0" 'S' s.[0];
  Alcotest.(check char) "magic1" 'p' s.[1];
  Alcotest.(check int) "version" 1 (Char.code s.[2]);
  (* Client updates travel RSA-signed: 256-byte authenticator class. *)
  Alcotest.(check int) "rsa-class frame length"
    (Wire.Envelope.header_bytes
    + String.length (Wire.Message.encode msg)
    + Wire.Envelope.tag_bytes Wire.Envelope.Rsa)
    (String.length s);
  match Wire.Envelope.decode s with
  | Ok env ->
    Alcotest.(check int) "sender" 9 env.Wire.Envelope.sender;
    Alcotest.(check bool) "scheme is Rsa" true
      (env.Wire.Envelope.scheme = Wire.Envelope.Rsa)
  | Error e -> Alcotest.failf "decode failed: %s" (Wire.Rw.error_to_string e)

let test_scheme_assignment () =
  let u = Bft.Update.create ~client:0 ~client_seq:0 ~operation:"" ~submitted_us:0 in
  let check msg scheme name =
    Alcotest.(check bool) name true (Wire.Envelope.scheme_of msg = scheme)
  in
  check (Wire.Message.Prime_msg (0, Prime.Msg.Suspect { view = 0 }))
    Wire.Envelope.Hmac "replica traffic is HMAC class";
  check (Wire.Message.Client_update u) Wire.Envelope.Rsa
    "client updates are RSA class";
  check
    (Wire.Message.Replica_reply
       {
         Scada.Reply.replica = 0;
         update_key = (0, 0);
         exec_index = 0;
         digest = Cryptosim.Digest.of_string "d";
         share =
           Cryptosim.Threshold.share_of_repr ~member:0
             ~digest:(Cryptosim.Digest.of_string "s")
             ~tag:(Cryptosim.Digest.of_string "t");
         body = Scada.Reply.Ack;
       })
    Wire.Envelope.Threshold_sig "replies carry threshold shares"

(* Message classes must have visibly different frame costs: a leader's
   summary-matrix pre-prepare dwarfs a prepare/commit vote. *)
let test_size_shape () =
  let n = 6 in
  let matrix = Array.make n (Array.make n 7) in
  let pre =
    Wire.Envelope.size ~sender:0
      (Wire.Message.Prime_msg (0, Prime.Msg.Preprepare { view = 1; seq = 1; matrix }))
  in
  let commit =
    Wire.Envelope.size ~sender:0
      (Wire.Message.Prime_msg
         (0, Prime.Msg.Commit { view = 1; seq = 1; digest = Cryptosim.Digest.of_string "x" }))
  in
  if pre <= commit + 80 then
    Alcotest.failf "pre-prepare (%dB) should dwarf a commit vote (%dB)" pre
      commit

(* ------------------------------------------------------------------ *)
(* End-to-end: a fault-free system run with decode-on-delivery must
   confirm updates, keep agreement, and see zero decode errors — and
   the overlay's byte ledger must be consistent.                       *)

let test_system_decode_on_delivery () =
  let cfg =
    {
      (Spire.System.default_config ()) with
      Spire.System.substations = 4;
      wire_debug = true;
    }
  in
  let sys = Spire.System.create cfg in
  Spire.System.start sys;
  Spire.System.run sys ~duration_us:3_000_000;
  Spire.System.assert_agreement sys;
  Alcotest.(check int) "zero decode errors" 0 (Spire.System.wire_decode_errors sys);
  let confirmed = Spire.System.confirmed_updates sys in
  if confirmed = 0 then Alcotest.fail "no updates confirmed";
  let stats = Overlay.Net.stats (Spire.System.net sys) in
  if stats.Overlay.Net.submitted_bytes = 0 then
    Alcotest.fail "no bytes accounted on the overlay";
  if stats.Overlay.Net.delivered_bytes = 0 then
    Alcotest.fail "no delivered bytes accounted";
  if stats.Overlay.Net.delivered_bytes > stats.Overlay.Net.submitted_bytes then
    Alcotest.fail "delivered more bytes than submitted in single-path mode";
  (* Per-kind ledger: pre-prepares must be the heavyweight class. *)
  let traffic = Spire.System.wire_traffic sys in
  let avg kind =
    match List.find_opt (fun (k, _, _) -> String.equal k kind) traffic with
    | Some (_, frames, bytes) when frames > 0 -> Some (bytes / frames)
    | _ -> None
  in
  (match (avg "prime/preprepare", avg "prime/commit") with
  | Some pre, Some commit ->
    if pre <= commit then
      Alcotest.failf "avg pre-prepare frame (%dB) <= avg commit frame (%dB)"
        pre commit
  | _ -> Alcotest.fail "expected pre-prepare and commit traffic");
  (* Per-link accounting adds up and busy time is sane. *)
  let reports = Overlay.Net.link_reports (Spire.System.net sys) in
  if reports = [] then Alcotest.fail "no link transmitted anything";
  List.iter
    (fun (rep : Overlay.Net.link_report) ->
      if rep.tx_bytes <= 0 || rep.tx_busy_us < 0 then
        Alcotest.failf "link %d->%d: %d B in %d us" rep.link_src rep.link_dst
          rep.tx_bytes rep.tx_busy_us)
    reports

let () =
  Alcotest.run "wire"
    [
      ( "roundtrip",
        [
          QCheck_alcotest.to_alcotest prop_update_roundtrip;
          QCheck_alcotest.to_alcotest prop_prime_roundtrip;
          QCheck_alcotest.to_alcotest prop_pbft_roundtrip;
          QCheck_alcotest.to_alcotest prop_reply_roundtrip;
          QCheck_alcotest.to_alcotest prop_chunk_roundtrip;
          QCheck_alcotest.to_alcotest prop_op_roundtrip;
          QCheck_alcotest.to_alcotest prop_message_roundtrip;
          QCheck_alcotest.to_alcotest prop_envelope_roundtrip;
          QCheck_alcotest.to_alcotest prop_encoding_deterministic;
          QCheck_alcotest.to_alcotest prop_envelope_size_accounts_overhead;
        ] );
      ( "measure",
        [
          QCheck_alcotest.to_alcotest prop_measure_update;
          QCheck_alcotest.to_alcotest prop_measure_prime;
          QCheck_alcotest.to_alcotest prop_measure_pbft;
          QCheck_alcotest.to_alcotest prop_measure_reply;
          QCheck_alcotest.to_alcotest prop_measure_chunk;
          QCheck_alcotest.to_alcotest prop_measure_message;
          QCheck_alcotest.to_alcotest prop_measure_envelope;
          QCheck_alcotest.to_alcotest prop_field_report_size;
          QCheck_alcotest.to_alcotest prop_field_advert_size;
          Alcotest.test_case "kind index table" `Quick test_kind_index_table;
          QCheck_alcotest.to_alcotest prop_kind_index_consistent;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_envelope_truncation;
          QCheck_alcotest.to_alcotest prop_message_truncation;
          QCheck_alcotest.to_alcotest prop_envelope_bitflip;
          QCheck_alcotest.to_alcotest never_raises_on_arbitrary_bytes;
          Alcotest.test_case "junk byte strings never decode" `Quick
            test_junk_is_undecodable;
          Alcotest.test_case "lying batch counts never decode" `Quick
            test_lying_batch_is_rejected;
          Alcotest.test_case "corrupt flips exactly one bit" `Quick
            test_corrupt_flips_one_bit;
        ] );
      ( "envelope",
        [
          Alcotest.test_case "frame layout and magic" `Quick test_envelope_layout;
          Alcotest.test_case "auth scheme per traffic class" `Quick
            test_scheme_assignment;
          Alcotest.test_case "pre-prepares dwarf votes" `Quick test_size_shape;
          QCheck_alcotest.to_alcotest prop_envelope_tag_matches_old;
        ] );
      ( "system",
        [
          Alcotest.test_case "decode-on-delivery E2E run" `Slow
            test_system_decode_on_delivery;
        ] );
    ]
