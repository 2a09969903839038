open Wire.Message

type t = {
  net : Wire.Message.t Overlay.Net.t;
  telemetry : Telemetry.Sink.t;
  wire_debug : bool;
  mutable mode : Overlay.Net.mode;
      (* live dissemination mode read per send; hot-swapped through the
         knob plane. Frames already in flight keep the route captured
         at submit. *)
  (* Wire accounting, indexed by Wire.Message.kind_index. *)
  frames : int array;
  bytes : int array;
  mutable memo_payload : Wire.Message.t; (* last measured payload *)
  mutable memo_bytes : int;
  mutable decode_errors : int;
}

let create net ~telemetry ~mode ~wire_debug =
  {
    net;
    telemetry;
    wire_debug;
    mode;
    frames = Array.make Wire.Message.kind_count 0;
    bytes = Array.make Wire.Message.kind_count 0;
    (* A fresh dummy payload: physically distinct from anything ever
       sent, so the first real send always misses the memo. *)
    memo_payload =
      Client_update
        (Bft.Update.create ~client:0 ~client_seq:0 ~operation:"" ~submitted_us:0);
    memo_bytes = 0;
    decode_errors = 0;
  }

let trace_of_update (u : Bft.Update.t) =
  Telemetry.Span.trace_id ~client:u.Bft.Update.client
    ~seq:u.Bft.Update.client_seq

(* The trace context a payload carries through the overlay: the update
   identity it transports, for the message kinds that transport one.
   Only consulted when the sink is enabled, so the disabled-path cost
   in [payload] is a single bool load. *)
let trace_of_reply (r : Scada.Reply.t) =
  let client, seq = r.Scada.Reply.update_key in
  Telemetry.Span.trace_id ~client ~seq

(* Batched frames are attributed to their first member: a batch is one
   physical frame, and per-hop net spans need a single representative. *)
let rec trace_of_payload payload =
  match payload with
  | Client_update u -> trace_of_update u
  | Client_batch (u :: _) -> trace_of_update u
  | Replica_reply r -> trace_of_reply r
  | Reply_batch (r :: _) -> trace_of_reply r
  | Prime_msg (_, Prime.Msg.Po_request { update; _ }) -> trace_of_update update
  | Prime_msg (_, Prime.Msg.Po_batch { updates = u :: _; _ }) ->
    trace_of_update u
  | Prime_msg (_, Prime.Msg.Recon_reply { update; _ }) -> trace_of_update update
  | Pbft_msg (_, Pbft.Msg.Request { update; _ }) -> trace_of_update update
  | Pbft_msg (_, Pbft.Msg.Preprepare { proposal = { updates = u :: _; _ }; _ })
    ->
    trace_of_update u
  | Epoch_frame (_, inner) -> trace_of_payload inner
  | Client_batch [] | Reply_batch [] | Prime_msg _ | Pbft_msg _
  | Transfer_chunk _ | Cert_frame _ | Field_advert _ | Field_report _ ->
    Telemetry.Span.no_trace

let charge t k size_bytes =
  t.frames.(k) <- t.frames.(k) + 1;
  t.bytes.(k) <- t.bytes.(k) + size_bytes

(* Every protocol send is charged the exact frame length (envelope
   header + encoded body + authenticator) via the measured-size pass,
   never an approximation — and never a serialisation: Wire.Measure
   walks the value arithmetically. A broadcast hands the same physical
   payload to every recipient, and frame size is sender-independent, so
   a one-slot memo keyed by physical identity measures each payload
   once per n-1-way broadcast. *)
let payload t ~src_node ~dst_node payload =
  let size_bytes =
    if payload == t.memo_payload then t.memo_bytes
    else begin
      let s = Wire.Envelope.size ~sender:src_node payload in
      t.memo_payload <- payload;
      t.memo_bytes <- s;
      s
    end
  in
  charge t (Wire.Message.kind_index payload) size_bytes;
  let trace =
    if Telemetry.Sink.enabled t.telemetry then trace_of_payload payload
    else Telemetry.Span.no_trace
  in
  Overlay.Net.send t.net ~priority:Overlay.Fair_queue.Control ~trace ~size_bytes
    ~src:src_node ~dst:dst_node ~mode:t.mode payload

let field_report_kind =
  Wire.Message.kind_index
    (Field_report { concentrator = 0; device = 0; seq = 0; events = [] })

let field_advert_kind =
  Wire.Message.kind_index
    (Field_advert
       {
         concentrator = 0;
         device = 0;
         discrete_inputs = 0;
         coils = 0;
         input_registers = 0;
         holding_registers = 0;
         map_digest = Cryptosim.Digest.of_int64 0L;
       })

(* Field-link frames (the device <-> concentrator last mile) never ride
   the overlay — devices are not overlay nodes — but they are real wire
   traffic, so they are charged into the same per-kind ledger at
   exact envelope size as every protocol frame. An advert's size is a
   constant, and a report's depends only on its event count, so neither
   frame is built. *)
let charge_field_frame t (frame : Field.Concentrator.frame) =
  match frame with
  | `Advert -> charge t field_advert_kind Wire.Envelope.field_advert_size
  | `Report events ->
    charge t field_report_kind (Wire.Envelope.field_report_size ~events)

(* Decode-on-delivery (debug): the simulator transports payloads by
   value, so re-encoding at the receiver is byte-identical to carrying
   the sender's frame. Round-tripping every delivered payload through
   [Wire.Envelope] catches any codec that is not the identity. *)
let check_delivery t ~sender payload =
  if t.wire_debug then
    match Wire.Envelope.decode (Wire.Envelope.encode ~sender payload) with
    | Ok env
      when env.Wire.Envelope.sender = sender
           && Wire.Message.equal env.Wire.Envelope.message payload ->
      ()
    | Ok _ | Error _ -> t.decode_errors <- t.decode_errors + 1

let mode t = t.mode

(* Routes cached for the previous mode are dropped; recomputation is a
   pure function of the unchanged topology. In-flight frames keep the
   route captured at submit time (the frame carries it), honouring the
   old mode. *)
let set_mode t mode =
  if mode <> t.mode then begin
    t.mode <- mode;
    Overlay.Net.invalidate_routes t.net
  end

let traffic t =
  let acc = ref [] in
  for k = Wire.Message.kind_count - 1 downto 0 do
    let frames = t.frames.(k) in
    if frames > 0 then
      acc := (Wire.Message.kind_name k, frames, t.bytes.(k)) :: !acc
  done;
  List.sort
    (fun (ka, _, ba) (kb, _, bb) ->
      match compare bb ba with 0 -> compare ka kb | c -> c)
    !acc

let decode_errors t = t.decode_errors
