type scheme = Hmac | Rsa | Threshold_sig

let magic0 = 0x53 (* 'S' *)
let magic1 = 0x70 (* 'p' *)
let version = 0x01

let tag_bytes = function Hmac -> 32 | Rsa -> 256 | Threshold_sig -> 128
let header_bytes = 10
let overhead scheme = header_bytes + tag_bytes scheme

let scheme_tag = function Hmac -> 0x01 | Rsa -> 0x02 | Threshold_sig -> 0x03

let scheme_of_tag = function
  | 0x01 -> Some Hmac
  | 0x02 -> Some Rsa
  | 0x03 -> Some Threshold_sig
  | _ -> None

let rec scheme_of = function
  | Message.Prime_msg _ | Message.Pbft_msg _ | Message.Transfer_chunk _ -> Hmac
  | Message.Client_update _ | Message.Client_batch _ -> Rsa
  | Message.Replica_reply _ | Message.Reply_batch _ -> Threshold_sig
  (* The epoch wrapper authenticates like its payload; certificates
     carry RSA signatures (they cross epochs, where HMAC key sets may
     have rotated). *)
  | Message.Epoch_frame (_, inner) -> scheme_of inner
  | Message.Cert_frame _ -> Rsa
  (* Field-link frames ride per-session HMAC keys between a device and
     its concentrator — the last mile has no PKI. *)
  | Message.Field_advert _ | Message.Field_report _ -> Hmac

type envelope = { sender : int; scheme : scheme; message : Message.t }

(* Simulated authenticator: digest of (scheme, sender, body). The first
   8 tag bytes carry it; the rest are zero padding to the scheme's
   real-world authenticator size. *)
let auth_digest scheme sender body =
  let module D = Cryptosim.Digest in
  (* ["env:%d:%d:%s"], streamed. *)
  let a = D.start () in
  D.add_string a "env:";
  D.add_int a (scheme_tag scheme);
  D.add_byte a ':';
  D.add_int a sender;
  D.add_byte a ':';
  D.add_string a body;
  D.finish a

let encode ~sender msg =
  let body = Message.encode msg in
  let scheme = scheme_of msg in
  let b = Buffer.create (overhead scheme + String.length body) in
  Rw.w_u8 b magic0;
  Rw.w_u8 b magic1;
  Rw.w_u8 b version;
  Rw.w_u8 b (scheme_tag scheme);
  Rw.w_u16 b sender;
  Rw.w_u32 b (String.length body);
  Buffer.add_string b body;
  Rw.w_i64 b (Cryptosim.Digest.to_int64 (auth_digest scheme sender body));
  Buffer.add_string b (String.make (tag_bytes scheme - 8) '\000');
  Buffer.contents b

(* Frame length is sender-independent (the sender travels as a fixed
   u16), so it can be computed arithmetically from the message alone —
   no frame allocation, no body encode, no authenticator digest. *)
let size ~sender:_ msg =
  overhead (scheme_of msg) + Measure.message msg

(* [scheme_of] puts every field-link frame under [Hmac]. *)
let field_report_size ~events = overhead Hmac + Measure.field_report_message ~events

let decode s =
  Rw.run s (fun r ->
      let ctx = "envelope" in
      let m0 = Rw.r_u8 ctx r in
      let m1 = Rw.r_u8 ctx r in
      if m0 <> magic0 || m1 <> magic1 then raise (Rw.Fail Rw.Bad_magic);
      let v = Rw.r_u8 ctx r in
      if v <> version then raise (Rw.Fail (Rw.Unsupported_version v));
      let stag = Rw.r_u8 ctx r in
      let scheme =
        match scheme_of_tag stag with
        | Some s -> s
        | None -> raise (Rw.Fail (Rw.Unknown_tag { context = ctx; tag = stag }))
      in
      let sender = Rw.r_u16 ctx r in
      let body_len = Rw.r_u32 ctx r in
      let body = Rw.take ctx r body_len in
      let tag8 = Rw.r_i64 ctx r in
      let padding = Rw.take ctx r (tag_bytes scheme - 8) in
      if
        (not
           (Int64.equal tag8
              (Cryptosim.Digest.to_int64 (auth_digest scheme sender body))))
        || String.exists (fun c -> c <> '\000') padding
      then raise (Rw.Fail Rw.Auth_mismatch);
      (* Decode the authenticated body; it must consume body exactly. *)
      match Rw.run body Message.r with
      | Ok message -> { sender; scheme; message }
      | Error e -> raise (Rw.Fail e))
