type body = Ack | Command of { rtu : int; frame : string }

type t = {
  replica : Bft.Types.replica;
  update_key : Bft.Types.client * int;
  exec_index : int;
  digest : Cryptosim.Digest.t;
  share : Cryptosim.Threshold.share;
  body : body;
}

(* The head digest hashes ["reply:%d:ack"] or ["reply:%d:cmd:%d:%s"]
   (exec index, then the RTU and frame), streamed. *)
let body_digest ~exec_index ~update_digest ~state ~body =
  let module D = Cryptosim.Digest in
  let a = D.start () in
  D.add_string a "reply:";
  D.add_int a exec_index;
  D.add_byte a ':';
  (match body with
  | Ack -> D.add_string a "ack"
  | Command { rtu; frame } ->
    D.add_string a "cmd:";
    D.add_int a rtu;
    D.add_byte a ':';
    D.add_string a frame);
  D.combine (D.finish a) (D.combine update_digest state)

let pp ppf t =
  Format.fprintf ppf "reply(r%d,(%d,%d),idx=%d)" t.replica (fst t.update_key)
    (snd t.update_key) t.exec_index
