type t = {
  applied : (int * Bft.Types.seqno, Cryptosim.Digest.t * Bft.Types.replica) Hashtbl.t;
  mutable verdict : Verdict.t;
  mutable checks : int;
}

let create () = { applied = Hashtbl.create 997; verdict = Verdict.pass; checks = 0 }
let verdict t = t.verdict
let checks t = t.checks

let observe t ~epoch ~replica ~seq ~digest =
  t.checks <- t.checks + 1;
  match Hashtbl.find_opt t.applied (epoch, seq) with
  | None -> Hashtbl.replace t.applied (epoch, seq) (digest, replica)
  | Some (first, by) ->
    if Verdict.is_pass t.verdict && not (Cryptosim.Digest.equal first digest)
    then
      t.verdict <-
        Verdict.failf
          "slot-finality violation: epoch %d slot %d applied as %s by replica \
           %d and as %s by replica %d"
          epoch seq
          (Cryptosim.Digest.to_hex first)
          by
          (Cryptosim.Digest.to_hex digest)
          replica
