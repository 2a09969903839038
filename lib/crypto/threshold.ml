type group = {
  group_id : int64;
  members : Keyring.principal list;
  threshold : int;
  share_prefix : Digest.acc; (* fed ["share:<group_id>:"]; only copied *)
  combined_prefix : Digest.acc; (* fed ["combined:<group_id>:"]; only copied *)
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
  (* The digest of ["group:%Ld:%s:%d"] over the comma-joined members. *)
  let a = Digest.start () in
  Digest.add_string a "group:";
  Digest.add_int64 a seed;
  Digest.add_byte a ':';
  List.iteri
    (fun i m ->
      if i > 0 then Digest.add_byte a ',';
      Digest.add_int a m)
    members;
  Digest.add_byte a ':';
  Digest.add_int a threshold;
  let group_id = Digest.to_int64 (Digest.finish a) in
  let prefix tag =
    let a = Digest.start () in
    Digest.add_string a tag;
    Digest.add_int64 a group_id;
    Digest.add_byte a ':';
    a
  in
  {
    group_id;
    members;
    threshold;
    share_prefix = prefix "share:";
    combined_prefix = prefix "combined:";
  }

(* The digest of ["share:%Ld:%d:%Ld"] (group, member, digest), streamed
   from the group's prefix: signed and verified once per reply share. *)
let share_tag g member digest =
  let a = Digest.copy g.share_prefix in
  Digest.add_int a member;
  Digest.add_byte a ':';
  Digest.add_int64 a (Digest.to_int64 digest);
  Digest.finish a

let threshold g = g.threshold
let is_member g (member : Keyring.principal) =
  List.exists (fun m -> m = member) g.members

let sign_share g ~member digest =
  if not (is_member g member) then
    invalid_arg "Threshold.sign_share: not a member";
  { member; share_digest = digest; tag = share_tag g member digest }

let corrupt_share s = { s with tag = Digest.combine s.tag s.tag }

let verify_share g ~digest s =
  Digest.equal s.share_digest digest
  && is_member g s.member
  && Digest.equal s.tag (share_tag g s.member digest)

let share_member s = s.member
let share_repr s = (s.member, s.share_digest, s.tag)
let share_of_repr ~member ~digest ~tag = { member; share_digest = digest; tag }

(* The digest of ["combined:%Ld:%Ld"] (group, digest), streamed from
   the group's prefix. *)
let combined_tag g digest =
  let a = Digest.copy g.combined_prefix in
  Digest.add_int64 a (Digest.to_int64 digest);
  Digest.finish a

let combine g ~digest shares =
  let valid = List.filter (verify_share g ~digest) shares in
  let distinct =
    List.sort_uniq Int.compare (List.map (fun s -> s.member) valid)
  in
  if List.length distinct >= g.threshold then
    Some { combined_digest = digest; combined_tag = combined_tag g digest }
  else None

let combined_repr c = (c.combined_digest, c.combined_tag)

let verify g ~digest c =
  Digest.equal c.combined_digest digest
  && Digest.equal c.combined_tag (combined_tag g digest)
