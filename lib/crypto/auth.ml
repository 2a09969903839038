type signature = { signer : Keyring.principal; tag : Digest.t }
type mac = { mac_tag : Digest.t }

type cost = {
  sign_us : int;
  verify_us : int;
  mac_us : int;
  mac_verify_us : int;
}

let default_cost = { sign_us = 800; verify_us = 60; mac_us = 2; mac_verify_us = 2 }

(* Each tag hashes the bytes of its [Printf] rendering, e.g.
   ["sig:%Ld:%d:%Ld"], streamed without building the string. *)
let tag_of ~material ~signer digest =
  let a = Digest.start () in
  Digest.add_string a "sig:";
  Digest.add_int64 a material;
  Digest.add_byte a ':';
  Digest.add_int a signer;
  Digest.add_byte a ':';
  Digest.add_int64 a (Digest.to_int64 digest);
  Digest.finish a

let sign secret digest =
  let signer = Keyring.secret_owner secret in
  { signer; tag = tag_of ~material:(Keyring.secret_material secret) ~signer digest }

let verify keyring ~signer ~digest signature =
  signature.signer = signer
  && Digest.equal signature.tag
       (tag_of ~material:(Keyring.material_of keyring signer) ~signer digest)

let signature_signer s = s.signer
let signature_tag s = s.tag

let forge ~claimed_signer ~digest =
  let a = Digest.start () in
  Digest.add_string a "forged:";
  Digest.add_int a claimed_signer;
  Digest.add_byte a ':';
  Digest.add_int64 a (Digest.to_int64 digest);
  { signer = claimed_signer; tag = Digest.finish a }

let mac_tag_of ~material ~sender ~peer digest =
  let a = Digest.start () in
  Digest.add_string a "mac:";
  Digest.add_int64 a material;
  Digest.add_byte a ':';
  Digest.add_int a sender;
  Digest.add_byte a ':';
  Digest.add_int a peer;
  Digest.add_byte a ':';
  Digest.add_int64 a (Digest.to_int64 digest);
  Digest.finish a

let mac secret ~peer digest =
  let sender = Keyring.secret_owner secret in
  {
    mac_tag =
      mac_tag_of ~material:(Keyring.secret_material secret) ~sender ~peer digest;
  }

let mac_tag m = m.mac_tag

let verify_mac keyring ~sender ~receiver ~digest m =
  Digest.equal m.mac_tag
    (mac_tag_of
       ~material:(Keyring.material_of keyring sender)
       ~sender ~peer:receiver digest)
