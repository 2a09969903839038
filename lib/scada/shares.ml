module T = Cryptosim.Threshold

type tally = {
  digest : Cryptosim.Digest.t;
  group : T.group;
  body : Reply.body;
  mutable members : Bft.Replica_set.t;
  mutable valid : T.share list;
}

type t = { mutable tallies : tally list }

let create () = { tallies = [] }

let tally t (reply : Reply.t) g =
  let digest = reply.Reply.digest in
  match
    List.find_opt
      (fun x -> x.group == g && Cryptosim.Digest.equal x.digest digest)
      t.tallies
  with
  | Some x -> x
  | None ->
    let x =
      { digest; group = g; body = reply.Reply.body;
        members = Bft.Replica_set.empty; valid = [] }
    in
    t.tallies <- x :: t.tallies;
    x

let add t ~groups (reply : Reply.t) =
  let digest = reply.Reply.digest and share = reply.Reply.share in
  let member = T.share_member share in
  List.find_map
    (fun g ->
      if not (T.verify_share g ~digest share) then None
      else begin
        let x = tally t reply g in
        if not (Bft.Replica_set.mem x.members member) then begin
          x.members <- Bft.Replica_set.add x.members member;
          x.valid <- share :: x.valid
        end;
        if Bft.Replica_set.cardinal x.members < T.threshold g then None
        else
          match T.combine g ~digest x.valid with
          | Some c when T.verify g ~digest c -> Some x.body
          | Some _ | None -> None
      end)
    groups
