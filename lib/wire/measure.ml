(* Direct frame-size computation, mirroring the writers in [Codec] and
   [Message] field by field. Each function must satisfy the law

     size v = String.length (encode v)

   (enforced by qcheck in test/test_wire.ml for every constructor), so
   the overlay's byte accounting can run on the per-message fast path
   without allocating and encoding a frame just to learn its length. *)

let u8 = 1
let u16 = 2
let u32 = 4
let i64 = 8
let digest = 8
let bool = u8

let bytes s = u32 + String.length s
let list f l = List.fold_left (fun acc v -> acc + f v) u16 l

let update (u : Bft.Update.t) =
  u16 + u32 + i64 + bytes u.Bft.Update.operation

let vector (v : Prime.Matrix.vector) = u16 + (u32 * Array.length v)

let matrix (m : Prime.Matrix.t) =
  Array.fold_left (fun acc row -> acc + vector row) u16 m

let prime_prepared (e : Prime.Msg.prepared_entry) =
  u32 + u32 + matrix e.Prime.Msg.entry_matrix

let prime (m : Prime.Msg.t) =
  u8
  +
  match m with
  | Prime.Msg.Po_request { update = u; _ } -> u16 + u32 + update u
  | Prime.Msg.Po_aru { vector = v } -> vector v
  | Prime.Msg.Preprepare { matrix = m; _ } -> u32 + u32 + matrix m
  | Prime.Msg.Prepare _ -> u32 + u32 + digest
  | Prime.Msg.Commit _ -> u32 + u32 + digest
  | Prime.Msg.Suspect _ -> u32
  | Prime.Msg.Viewchange { prepared; _ } ->
    u32 + u32 + list prime_prepared prepared
  | Prime.Msg.Newview { proposals; _ } ->
    u32 + list (fun (_, m) -> u32 + matrix m) proposals
  | Prime.Msg.Recon_request _ -> u16 + u32
  | Prime.Msg.Recon_reply { update = u; _ } -> u16 + u32 + update u
  | Prime.Msg.Slot_request _ -> u32
  | Prime.Msg.Slot_reply { matrix = m; _ } -> u32 + matrix m
  | Prime.Msg.Checkpoint _ -> u32 + digest
  | Prime.Msg.Po_batch { updates; _ } -> u16 + u32 + list update updates

let pbft_proposal (p : Pbft.Msg.proposal) =
  u32 + list update p.Pbft.Msg.updates

let pbft_prepared (e : Pbft.Msg.prepared_entry) =
  u32 + u32 + list update e.Pbft.Msg.entry_updates

let pbft (m : Pbft.Msg.t) =
  u8
  +
  match m with
  | Pbft.Msg.Request { update = u; _ } -> update u + bool
  | Pbft.Msg.Preprepare { proposal; _ } -> u32 + pbft_proposal proposal
  | Pbft.Msg.Prepare _ -> u32 + u32 + digest
  | Pbft.Msg.Commit _ -> u32 + u32 + digest
  | Pbft.Msg.Checkpoint _ -> u32 + digest
  | Pbft.Msg.Viewchange { prepared; _ } ->
    u32 + u32 + list pbft_prepared prepared
  | Pbft.Msg.Newview { proposals; _ } ->
    u32 + u32 + list pbft_proposal proposals

let reply (t : Scada.Reply.t) =
  u16 + u16 + u32 + u32 + digest (* replica, update key, exec index, digest *)
  + u16 + digest + digest (* threshold share representation *)
  +
  match t.Scada.Reply.body with
  | Scada.Reply.Ack -> u8
  | Scada.Reply.Command { frame; _ } -> u8 + u16 + bytes frame

let chunk (c : Recovery.State_transfer.chunk) =
  u32 + u32 + u32 + digest + bytes c.Recovery.State_transfer.data

(* An advert's fields are all fixed-width. *)
let field_advert = u16 + u32 + u8 + u8 + u8 + u8 + digest

(* Every event is a table tag, an address and a value, whatever their
   contents, so a report's size is a function of its event count. *)
let field_report_events n = u16 + u32 + u32 + u16 + (n * (u8 + u16 + u16))

let field_report (rep : Scada.Field_frame.report) =
  field_report_events (List.length rep.Scada.Field_frame.events)

let site (s : Member.Cert.site) =
  u16 + u8 + list (fun _ -> u16) s.Member.Cert.members

let cert (c : Member.Cert.t) =
  u32 + u16 + u16 + u32 + list site c.Member.Cert.sites
  + list (fun _ -> u16) c.Member.Cert.signers
  + digest

(* The kind tag in front of every message body. *)
let tag = u8

let rec message (m : Message.t) =
  tag
  +
  match m with
  | Message.Prime_msg (_, p) -> u16 + prime p
  | Message.Pbft_msg (_, p) -> u16 + pbft p
  | Message.Client_update u -> update u
  | Message.Replica_reply r -> reply r
  | Message.Transfer_chunk c -> chunk c
  | Message.Client_batch us -> list update us
  | Message.Reply_batch rs -> list reply rs
  | Message.Epoch_frame (_, inner) -> u32 + message inner
  | Message.Cert_frame c -> cert c
  | Message.Field_advert _ -> field_advert
  | Message.Field_report rep -> field_report rep

let field_report_message ~events = tag + field_report_events events
let field_advert_message = tag + field_advert
