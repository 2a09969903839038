type group = {
  group_id : int64;
  members : Keyring.principal list;
  threshold : int;
}

type share = {
  member : Keyring.principal;
  share_digest : Digest.t;
  tag : Digest.t;
}

type combined = { combined_digest : Digest.t; combined_tag : Digest.t }

type cost = { share_us : int; share_verify_us : int; combine_us : int; verify_us : int }

let default_cost = { share_us = 900; share_verify_us = 80; combine_us = 300; verify_us = 60 }

let create_group ~seed ~members ~threshold =
  let n = List.length members in
  if threshold < 1 || threshold > n then
    invalid_arg "Threshold.create_group: threshold out of range";
  let id_src =
    Printf.sprintf "group:%Ld:%s:%d" seed
      (String.concat "," (List.map string_of_int members))
      threshold
  in
  { group_id = Digest.to_int64 (Digest.of_string id_src); members; threshold }

let threshold g = g.threshold
let members g = g.members

(* Plain concatenation: signed and verified once per reply share, so
   sprintf's format interpretation showed up in profiles. Byte-identical
   to the sprintf it replaces. *)
let share_tag g member digest =
  Digest.of_string
    ("share:" ^ Int64.to_string g.group_id ^ ":" ^ string_of_int member ^ ":"
   ^ Int64.to_string (Digest.to_int64 digest))

let sign_share g ~member digest =
  if not (List.mem member g.members) then
    invalid_arg "Threshold.sign_share: not a member";
  { member; share_digest = digest; tag = share_tag g member digest }

let corrupt_share s = { s with tag = Digest.combine s.tag s.tag }

let verify_share g ~digest s =
  Digest.equal s.share_digest digest
  && List.mem s.member g.members
  && Digest.equal s.tag (share_tag g s.member digest)

let share_repr s = (s.member, s.share_digest, s.tag)
let share_of_repr ~member ~digest ~tag = { member; share_digest = digest; tag }

let combined_tag g digest =
  Digest.of_string
    ("combined:" ^ Int64.to_string g.group_id ^ ":"
   ^ Int64.to_string (Digest.to_int64 digest))

let combine g ~digest shares =
  let valid = List.filter (verify_share g ~digest) shares in
  let distinct =
    List.sort_uniq compare (List.map (fun s -> s.member) valid)
  in
  if List.length distinct >= g.threshold then
    Some { combined_digest = digest; combined_tag = combined_tag g digest }
  else None

let verify g ~digest c =
  Digest.equal c.combined_digest digest
  && Digest.equal c.combined_tag (combined_tag g digest)
