type signature = { signer : Keyring.principal; tag : Digest.t }
type mac = { mac_tag : Digest.t }

type cost = {
  sign_us : int;
  verify_us : int;
  mac_us : int;
  mac_verify_us : int;
}

let default_cost = { sign_us = 800; verify_us = 60; mac_us = 2; mac_verify_us = 2 }

let tag_of ~material ~signer digest =
  let s = Printf.sprintf "sig:%Ld:%d:%Ld" material signer (Digest.to_int64 digest) in
  Digest.of_string s

let sign secret digest =
  let signer = Keyring.secret_owner secret in
  { signer; tag = tag_of ~material:(Keyring.secret_material secret) ~signer digest }

let verify keyring ~signer ~digest signature =
  signature.signer = signer
  && Digest.equal signature.tag
       (tag_of ~material:(Keyring.material_of keyring signer) ~signer digest)

let signature_signer s = s.signer

let forge ~claimed_signer ~digest =
  let s = Printf.sprintf "forged:%d:%Ld" claimed_signer (Digest.to_int64 digest) in
  { signer = claimed_signer; tag = Digest.of_string s }

let mac_tag_of ~material ~sender ~peer digest =
  let s =
    Printf.sprintf "mac:%Ld:%d:%d:%Ld" material sender peer
      (Digest.to_int64 digest)
  in
  Digest.of_string s

let mac secret ~peer digest =
  let sender = Keyring.secret_owner secret in
  {
    mac_tag =
      mac_tag_of ~material:(Keyring.secret_material secret) ~sender ~peer digest;
  }

let verify_mac keyring ~sender ~receiver ~digest m =
  Digest.equal m.mac_tag
    (mac_tag_of
       ~material:(Keyring.material_of keyring sender)
       ~sender ~peer:receiver digest)
