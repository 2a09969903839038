let encode_with w v =
  let b = Buffer.create 128 in
  w b v;
  Buffer.contents b

let decode_with r s = Rw.run s r

(* ------------------------------------------------------------------ *)
(* Bft.Update.t                                                        *)

let w_update b (u : Bft.Update.t) =
  Rw.w_u16 b u.Bft.Update.client;
  Rw.w_u32 b u.Bft.Update.client_seq;
  Rw.w_i64 b (Int64.of_int u.Bft.Update.submitted_us);
  Rw.w_bytes b u.Bft.Update.operation

let r_update r =
  let client = Rw.r_u16 "update.client" r in
  let client_seq = Rw.r_u32 "update.client_seq" r in
  let submitted_us = Int64.to_int (Rw.r_i64 "update.submitted_us" r) in
  let operation = Rw.r_bytes "update.operation" r in
  Bft.Update.create ~client ~client_seq ~operation ~submitted_us

let encode_update = encode_with w_update
let decode_update = decode_with r_update

(* ------------------------------------------------------------------ *)
(* Prime vectors and matrices                                          *)

let w_vector b (v : Prime.Matrix.vector) =
  let n = Array.length v in
  if n > 0xffff then invalid_arg "Wire.Codec: vector too long";
  Rw.w_u16 b n;
  Array.iter (fun e -> Rw.w_u32 b e) v

let r_vector r =
  let ctx = "vector" in
  let n = Rw.r_u16 ctx r in
  (* 4 bytes per entry: bound-check before allocating. *)
  if Rw.remaining r < 4 * n then
    raise
      (Rw.Fail
         (Rw.Truncated { context = ctx; wanted = 4 * n; available = Rw.remaining r }));
  let v = Array.make n 0 in
  for i = 0 to n - 1 do
    v.(i) <- Rw.r_u32 ctx r
  done;
  v

let w_matrix b (m : Prime.Matrix.t) =
  let rows = Array.length m in
  if rows > 0xffff then invalid_arg "Wire.Codec: matrix too large";
  Rw.w_u16 b rows;
  Array.iter (w_vector b) m

let r_matrix r =
  let rows = Rw.r_u16 "matrix" r in
  (* Each row is at least 2 bytes of count. *)
  if Rw.remaining r < 2 * rows then
    raise
      (Rw.Fail
         (Rw.Truncated
            { context = "matrix"; wanted = 2 * rows; available = Rw.remaining r }));
  let m = Array.make rows [||] in
  for i = 0 to rows - 1 do
    m.(i) <- r_vector r
  done;
  m

(* ------------------------------------------------------------------ *)
(* Prime.Msg.t                                                         *)

let w_prime_prepared b (e : Prime.Msg.prepared_entry) =
  Rw.w_u32 b e.Prime.Msg.entry_seq;
  Rw.w_u32 b e.Prime.Msg.entry_view;
  w_matrix b e.Prime.Msg.entry_matrix

let r_prime_prepared r =
  let entry_seq = Rw.r_u32 "prime.prepared.seq" r in
  let entry_view = Rw.r_u32 "prime.prepared.view" r in
  let entry_matrix = r_matrix r in
  { Prime.Msg.entry_seq; entry_view; entry_matrix }

let w_prime b (m : Prime.Msg.t) =
  match m with
  | Prime.Msg.Po_request { origin; po_seq; update } ->
    Rw.w_u8 b 0x01;
    Rw.w_u16 b origin;
    Rw.w_u32 b po_seq;
    w_update b update
  | Prime.Msg.Po_aru { vector } ->
    Rw.w_u8 b 0x02;
    w_vector b vector
  | Prime.Msg.Preprepare { view; seq; matrix } ->
    Rw.w_u8 b 0x03;
    Rw.w_u32 b view;
    Rw.w_u32 b seq;
    w_matrix b matrix
  | Prime.Msg.Prepare { view; seq; digest } ->
    Rw.w_u8 b 0x04;
    Rw.w_u32 b view;
    Rw.w_u32 b seq;
    Rw.w_digest b digest
  | Prime.Msg.Commit { view; seq; digest } ->
    Rw.w_u8 b 0x05;
    Rw.w_u32 b view;
    Rw.w_u32 b seq;
    Rw.w_digest b digest
  | Prime.Msg.Suspect { view } ->
    Rw.w_u8 b 0x06;
    Rw.w_u32 b view
  | Prime.Msg.Viewchange { new_view; last_committed; prepared } ->
    Rw.w_u8 b 0x07;
    Rw.w_u32 b new_view;
    Rw.w_u32 b last_committed;
    Rw.w_list b w_prime_prepared prepared
  | Prime.Msg.Newview { view; proposals } ->
    Rw.w_u8 b 0x08;
    Rw.w_u32 b view;
    Rw.w_list b
      (fun b (seq, matrix) ->
        Rw.w_u32 b seq;
        w_matrix b matrix)
      proposals
  | Prime.Msg.Recon_request { origin; po_seq } ->
    Rw.w_u8 b 0x09;
    Rw.w_u16 b origin;
    Rw.w_u32 b po_seq
  | Prime.Msg.Recon_reply { origin; po_seq; update } ->
    Rw.w_u8 b 0x0a;
    Rw.w_u16 b origin;
    Rw.w_u32 b po_seq;
    w_update b update
  | Prime.Msg.Slot_request { seq } ->
    Rw.w_u8 b 0x0b;
    Rw.w_u32 b seq
  | Prime.Msg.Slot_reply { seq; matrix } ->
    Rw.w_u8 b 0x0c;
    Rw.w_u32 b seq;
    w_matrix b matrix
  | Prime.Msg.Checkpoint { executed; chain } ->
    Rw.w_u8 b 0x0d;
    Rw.w_u32 b executed;
    Rw.w_digest b chain
  | Prime.Msg.Po_batch { origin; first_seq; updates } ->
    Rw.w_u8 b 0x0e;
    Rw.w_u16 b origin;
    Rw.w_u32 b first_seq;
    Rw.w_list b w_update updates

let r_prime r =
  let ctx = "prime.msg" in
  match Rw.r_u8 ctx r with
  | 0x01 ->
    let origin = Rw.r_u16 ctx r in
    let po_seq = Rw.r_u32 ctx r in
    let update = r_update r in
    Prime.Msg.Po_request { origin; po_seq; update }
  | 0x02 -> Prime.Msg.Po_aru { vector = r_vector r }
  | 0x03 ->
    let view = Rw.r_u32 ctx r in
    let seq = Rw.r_u32 ctx r in
    let matrix = r_matrix r in
    Prime.Msg.Preprepare { view; seq; matrix }
  | 0x04 ->
    let view = Rw.r_u32 ctx r in
    let seq = Rw.r_u32 ctx r in
    let digest = Rw.r_digest ctx r in
    Prime.Msg.Prepare { view; seq; digest }
  | 0x05 ->
    let view = Rw.r_u32 ctx r in
    let seq = Rw.r_u32 ctx r in
    let digest = Rw.r_digest ctx r in
    Prime.Msg.Commit { view; seq; digest }
  | 0x06 -> Prime.Msg.Suspect { view = Rw.r_u32 ctx r }
  | 0x07 ->
    let new_view = Rw.r_u32 ctx r in
    let last_committed = Rw.r_u32 ctx r in
    let prepared = Rw.r_list ctx r r_prime_prepared in
    Prime.Msg.Viewchange { new_view; last_committed; prepared }
  | 0x08 ->
    let view = Rw.r_u32 ctx r in
    let proposals =
      Rw.r_list ctx r (fun r ->
          let seq = Rw.r_u32 ctx r in
          let matrix = r_matrix r in
          (seq, matrix))
    in
    Prime.Msg.Newview { view; proposals }
  | 0x09 ->
    let origin = Rw.r_u16 ctx r in
    let po_seq = Rw.r_u32 ctx r in
    Prime.Msg.Recon_request { origin; po_seq }
  | 0x0a ->
    let origin = Rw.r_u16 ctx r in
    let po_seq = Rw.r_u32 ctx r in
    let update = r_update r in
    Prime.Msg.Recon_reply { origin; po_seq; update }
  | 0x0b -> Prime.Msg.Slot_request { seq = Rw.r_u32 ctx r }
  | 0x0c ->
    let seq = Rw.r_u32 ctx r in
    let matrix = r_matrix r in
    Prime.Msg.Slot_reply { seq; matrix }
  | 0x0d ->
    let executed = Rw.r_u32 ctx r in
    let chain = Rw.r_digest ctx r in
    Prime.Msg.Checkpoint { executed; chain }
  | 0x0e ->
    let origin = Rw.r_u16 ctx r in
    let first_seq = Rw.r_u32 ctx r in
    let updates = Rw.r_list ctx r r_update in
    Prime.Msg.Po_batch { origin; first_seq; updates }
  | tag -> raise (Rw.Fail (Rw.Unknown_tag { context = ctx; tag }))

let encode_prime = encode_with w_prime
let decode_prime = decode_with r_prime

(* ------------------------------------------------------------------ *)
(* Pbft.Msg.t                                                          *)

let w_proposal b (p : Pbft.Msg.proposal) =
  Rw.w_u32 b p.Pbft.Msg.seq;
  Rw.w_list b w_update p.Pbft.Msg.updates

let r_proposal r =
  let seq = Rw.r_u32 "pbft.proposal.seq" r in
  let updates = Rw.r_list "pbft.proposal.updates" r r_update in
  { Pbft.Msg.seq; updates }

let w_pbft_prepared b (e : Pbft.Msg.prepared_entry) =
  Rw.w_u32 b e.Pbft.Msg.entry_seq;
  Rw.w_u32 b e.Pbft.Msg.entry_view;
  Rw.w_list b w_update e.Pbft.Msg.entry_updates

let r_pbft_prepared r =
  let entry_seq = Rw.r_u32 "pbft.prepared.seq" r in
  let entry_view = Rw.r_u32 "pbft.prepared.view" r in
  let entry_updates = Rw.r_list "pbft.prepared.updates" r r_update in
  { Pbft.Msg.entry_seq; entry_view; entry_updates }

let w_pbft b (m : Pbft.Msg.t) =
  match m with
  | Pbft.Msg.Request { update; broadcast } ->
    Rw.w_u8 b 0x01;
    w_update b update;
    Rw.w_bool b broadcast
  | Pbft.Msg.Preprepare { view; proposal } ->
    Rw.w_u8 b 0x02;
    Rw.w_u32 b view;
    w_proposal b proposal
  | Pbft.Msg.Prepare { view; seq; digest } ->
    Rw.w_u8 b 0x03;
    Rw.w_u32 b view;
    Rw.w_u32 b seq;
    Rw.w_digest b digest
  | Pbft.Msg.Commit { view; seq; digest } ->
    Rw.w_u8 b 0x04;
    Rw.w_u32 b view;
    Rw.w_u32 b seq;
    Rw.w_digest b digest
  | Pbft.Msg.Checkpoint { seq; chain } ->
    Rw.w_u8 b 0x05;
    Rw.w_u32 b seq;
    Rw.w_digest b chain
  | Pbft.Msg.Viewchange { new_view; last_stable; prepared } ->
    Rw.w_u8 b 0x06;
    Rw.w_u32 b new_view;
    Rw.w_u32 b last_stable;
    Rw.w_list b w_pbft_prepared prepared
  | Pbft.Msg.Newview { view; proposals; stable_seq } ->
    Rw.w_u8 b 0x07;
    Rw.w_u32 b view;
    Rw.w_u32 b stable_seq;
    Rw.w_list b w_proposal proposals

let r_pbft r =
  let ctx = "pbft.msg" in
  match Rw.r_u8 ctx r with
  | 0x01 ->
    let update = r_update r in
    let broadcast = Rw.r_bool ctx r in
    Pbft.Msg.Request { update; broadcast }
  | 0x02 ->
    let view = Rw.r_u32 ctx r in
    let proposal = r_proposal r in
    Pbft.Msg.Preprepare { view; proposal }
  | 0x03 ->
    let view = Rw.r_u32 ctx r in
    let seq = Rw.r_u32 ctx r in
    let digest = Rw.r_digest ctx r in
    Pbft.Msg.Prepare { view; seq; digest }
  | 0x04 ->
    let view = Rw.r_u32 ctx r in
    let seq = Rw.r_u32 ctx r in
    let digest = Rw.r_digest ctx r in
    Pbft.Msg.Commit { view; seq; digest }
  | 0x05 ->
    let seq = Rw.r_u32 ctx r in
    let chain = Rw.r_digest ctx r in
    Pbft.Msg.Checkpoint { seq; chain }
  | 0x06 ->
    let new_view = Rw.r_u32 ctx r in
    let last_stable = Rw.r_u32 ctx r in
    let prepared = Rw.r_list ctx r r_pbft_prepared in
    Pbft.Msg.Viewchange { new_view; last_stable; prepared }
  | 0x07 ->
    let view = Rw.r_u32 ctx r in
    let stable_seq = Rw.r_u32 ctx r in
    let proposals = Rw.r_list ctx r r_proposal in
    Pbft.Msg.Newview { view; proposals; stable_seq }
  | tag -> raise (Rw.Fail (Rw.Unknown_tag { context = ctx; tag }))

let encode_pbft = encode_with w_pbft
let decode_pbft = decode_with r_pbft

(* ------------------------------------------------------------------ *)
(* Scada.Op.t — delegate to the existing byte-level application codec
   (it already frames status/command payloads DNP3-style).             *)

let encode_op = Scada.Op.encode

let decode_op s =
  match Scada.Op.decode s with
  | Ok op -> Ok op
  | Error detail -> Error (Rw.Invalid_value { context = "scada.op"; detail })

(* ------------------------------------------------------------------ *)
(* Scada.Reply.t                                                       *)

let w_reply b (t : Scada.Reply.t) =
  Rw.w_u16 b t.Scada.Reply.replica;
  let client, cseq = t.Scada.Reply.update_key in
  Rw.w_u16 b client;
  Rw.w_u32 b cseq;
  Rw.w_u32 b t.Scada.Reply.exec_index;
  Rw.w_digest b t.Scada.Reply.digest;
  let member, share_digest, tag = Cryptosim.Threshold.share_repr t.Scada.Reply.share in
  Rw.w_u16 b member;
  Rw.w_digest b share_digest;
  Rw.w_digest b tag;
  match t.Scada.Reply.body with
  | Scada.Reply.Ack -> Rw.w_u8 b 0x00
  | Scada.Reply.Command { rtu; frame } ->
    Rw.w_u8 b 0x01;
    Rw.w_u16 b rtu;
    Rw.w_bytes b frame

let r_reply r =
  let ctx = "scada.reply" in
  let replica = Rw.r_u16 ctx r in
  let client = Rw.r_u16 ctx r in
  let cseq = Rw.r_u32 ctx r in
  let exec_index = Rw.r_u32 ctx r in
  let digest = Rw.r_digest ctx r in
  let member = Rw.r_u16 ctx r in
  let share_digest = Rw.r_digest ctx r in
  let tag = Rw.r_digest ctx r in
  let share =
    Cryptosim.Threshold.share_of_repr ~member ~digest:share_digest ~tag
  in
  let body =
    match Rw.r_u8 ctx r with
    | 0x00 -> Scada.Reply.Ack
    | 0x01 ->
      let rtu = Rw.r_u16 ctx r in
      let frame = Rw.r_bytes ctx r in
      Scada.Reply.Command { rtu; frame }
    | tag -> raise (Rw.Fail (Rw.Unknown_tag { context = ctx; tag }))
  in
  {
    Scada.Reply.replica;
    update_key = (client, cseq);
    exec_index;
    digest;
    share;
    body;
  }

let encode_reply = encode_with w_reply
let decode_reply = decode_with r_reply

(* ------------------------------------------------------------------ *)
(* Recovery.State_transfer.chunk                                       *)

let w_chunk b (c : Recovery.State_transfer.chunk) =
  Rw.w_u32 b c.Recovery.State_transfer.xfer_id;
  Rw.w_u32 b c.Recovery.State_transfer.chunk_index;
  Rw.w_u32 b c.Recovery.State_transfer.chunk_count;
  Rw.w_digest b c.Recovery.State_transfer.total_digest;
  Rw.w_bytes b c.Recovery.State_transfer.data

let r_chunk r =
  let ctx = "xfer.chunk" in
  let xfer_id = Rw.r_u32 ctx r in
  let chunk_index = Rw.r_u32 ctx r in
  let chunk_count = Rw.r_u32 ctx r in
  let total_digest = Rw.r_digest ctx r in
  let data = Rw.r_bytes ctx r in
  { Recovery.State_transfer.xfer_id; chunk_index; chunk_count; total_digest; data }

let encode_chunk = encode_with w_chunk
let decode_chunk = decode_with r_chunk

(* ------------------------------------------------------------------ *)
(* Member.Cert.t                                                       *)

let w_role b = function
  | Member.Cert.Active_cc -> Rw.w_u8 b 0x01
  | Member.Cert.Backup_cc -> Rw.w_u8 b 0x02
  | Member.Cert.Data_center -> Rw.w_u8 b 0x03

let r_role r =
  let ctx = "cert.role" in
  match Rw.r_u8 ctx r with
  | 0x01 -> Member.Cert.Active_cc
  | 0x02 -> Member.Cert.Backup_cc
  | 0x03 -> Member.Cert.Data_center
  | tag -> raise (Rw.Fail (Rw.Unknown_tag { context = ctx; tag }))

let w_site b (s : Member.Cert.site) =
  Rw.w_u16 b s.Member.Cert.site_id;
  w_role b s.Member.Cert.role;
  Rw.w_list b (fun b m -> Rw.w_u16 b m) s.Member.Cert.members

let r_site r =
  let ctx = "cert.site" in
  let site_id = Rw.r_u16 ctx r in
  let role = r_role r in
  let members = Rw.r_list ctx r (fun r -> Rw.r_u16 ctx r) in
  { Member.Cert.site_id; role; members }

let w_cert b (c : Member.Cert.t) =
  Rw.w_u32 b c.Member.Cert.epoch;
  Rw.w_u16 b c.Member.Cert.f;
  Rw.w_u16 b c.Member.Cert.k;
  Rw.w_u32 b c.Member.Cert.boundary_exec;
  Rw.w_list b w_site c.Member.Cert.sites;
  Rw.w_list b (fun b m -> Rw.w_u16 b m) c.Member.Cert.signers;
  Rw.w_digest b c.Member.Cert.prev_digest

let r_cert r =
  let ctx = "cert" in
  let epoch = Rw.r_u32 ctx r in
  let f = Rw.r_u16 ctx r in
  let k = Rw.r_u16 ctx r in
  let boundary_exec = Rw.r_u32 ctx r in
  let sites = Rw.r_list ctx r r_site in
  let signers = Rw.r_list ctx r (fun r -> Rw.r_u16 ctx r) in
  let prev_digest = Rw.r_digest ctx r in
  { Member.Cert.epoch; f; k; boundary_exec; sites; signers; prev_digest }


(* ------------------------------------------------------------------ *)
(* Scada.Field_frame — field-link frames (device <-> concentrator)     *)

let w_field_advert b (a : Scada.Field_frame.advert) =
  Rw.w_u16 b a.Scada.Field_frame.concentrator;
  Rw.w_u32 b a.Scada.Field_frame.device;
  Rw.w_u8 b a.Scada.Field_frame.discrete_inputs;
  Rw.w_u8 b a.Scada.Field_frame.coils;
  Rw.w_u8 b a.Scada.Field_frame.input_registers;
  Rw.w_u8 b a.Scada.Field_frame.holding_registers;
  Rw.w_digest b a.Scada.Field_frame.map_digest

let r_field_advert r =
  let ctx = "field.advert" in
  let concentrator = Rw.r_u16 ctx r in
  let device = Rw.r_u32 ctx r in
  let discrete_inputs = Rw.r_u8 ctx r in
  let coils = Rw.r_u8 ctx r in
  let input_registers = Rw.r_u8 ctx r in
  let holding_registers = Rw.r_u8 ctx r in
  let map_digest = Rw.r_digest ctx r in
  {
    Scada.Field_frame.concentrator;
    device;
    discrete_inputs;
    coils;
    input_registers;
    holding_registers;
    map_digest;
  }

let w_field_event b (e : Scada.Field_frame.event) =
  Rw.w_u8 b (Scada.Field_frame.table_to_int e.Scada.Field_frame.table);
  Rw.w_u16 b e.Scada.Field_frame.address;
  Rw.w_u16 b e.Scada.Field_frame.value

let r_field_event r =
  let ctx = "field.event" in
  let table =
    let raw = Rw.r_u8 ctx r in
    match Scada.Field_frame.table_of_int raw with
    | Some t -> t
    | None -> raise (Rw.Fail (Rw.Unknown_tag { context = ctx; tag = raw }))
  in
  let address = Rw.r_u16 ctx r in
  let value = Rw.r_u16 ctx r in
  { Scada.Field_frame.table; address; value }

let w_field_report b (rep : Scada.Field_frame.report) =
  Rw.w_u16 b rep.Scada.Field_frame.concentrator;
  Rw.w_u32 b rep.Scada.Field_frame.device;
  Rw.w_u32 b rep.Scada.Field_frame.seq;
  Rw.w_list b w_field_event rep.Scada.Field_frame.events

let r_field_report r =
  let ctx = "field.report" in
  let concentrator = Rw.r_u16 ctx r in
  let device = Rw.r_u32 ctx r in
  let seq = Rw.r_u32 ctx r in
  let events = Rw.r_list ctx r r_field_event in
  { Scada.Field_frame.concentrator; device; seq; events }

