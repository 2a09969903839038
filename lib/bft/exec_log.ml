(* Chain digests live unboxed in [chains], 8 bytes per position from
   [base] (0, or the last installed snapshot's length) to [len]. *)
type t = {
  mutable len : int;
  mutable chain : Cryptosim.Digest.t;
  mutable base : int;
  mutable chains : Bytes.t;
}

let empty_chain = Cryptosim.Digest.of_string "exec-log-genesis"

let set_at t pos d =
  let off = (pos - t.base) * 8 in
  if off + 8 > Bytes.length t.chains then begin
    let grown = Bytes.create (2 * Bytes.length t.chains) in
    Bytes.blit t.chains 0 grown 0 off;
    t.chains <- grown
  end;
  Bytes.set_int64_le t.chains off (Cryptosim.Digest.to_int64 d)

let reset t ~base ~chain =
  t.len <- base;
  t.chain <- chain;
  t.base <- base;
  set_at t base chain

let create () =
  let t = { len = 0; chain = empty_chain; base = 0; chains = Bytes.create 512 } in
  reset t ~base:0 ~chain:empty_chain;
  t

let length t = t.len

let append t update =
  t.len <- t.len + 1;
  t.chain <- Cryptosim.Digest.combine t.chain (Update.digest update);
  set_at t t.len t.chain;
  t.len

let chain_digest t = t.chain
let holds t pos = pos >= t.base && pos <= t.len

let digest_at t pos =
  if not (holds t pos) then invalid_arg "Exec_log.digest_at: position out of range";
  Cryptosim.Digest.of_int64 (Bytes.get_int64_le t.chains ((pos - t.base) * 8))

let prefix_equal a b =
  let common = Int.min (length a) (length b) in
  (* Compare chain digests at the common length when both logs still
     remember it; positions truncated by snapshots compare trivially. *)
  (not (holds a common && holds b common))
  || Cryptosim.Digest.equal (digest_at a common) (digest_at b common)

let install_snapshot t ~updates ~chain = reset t ~base:updates ~chain
