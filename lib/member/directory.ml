(* The membership directory: the locally known certificate chain.

   Every replica (and the test harness) holds one.  [advance] derives
   and installs a successor from a reconfiguration command — used by
   the first replica to cut over at a boundary; [install] admits a
   certificate derived elsewhere after re-verifying succession — used
   by replicas that learn the epoch from a peer.  The chain only ever
   grows; certificates are never reordered or replaced, so the history
   doubles as the audit log the oracle checks. *)

type t = {
  mutable chain : Cert.t list; (* newest first, genesis last *)
}

let create ~genesis =
  (match Cert.validate genesis with
  | Ok () -> ()
  | Error e -> invalid_arg ("Member.Directory.create: " ^ e));
  if Cert.epoch genesis <> 0 then
    invalid_arg "Member.Directory.create: genesis must be epoch 0";
  { chain = [ genesis ] }

let current t = List.hd t.chain
let epoch t = Cert.epoch (current t)

let cert_of_epoch t e =
  List.find_opt (fun c -> Cert.epoch c = e) t.chain

let install t next =
  let prev = current t in
  if Cert.epoch next <= Cert.epoch prev then
    if
      (* Idempotent re-install of a known cert is fine; a *different*
         cert at a known epoch is a fork. *)
      match cert_of_epoch t (Cert.epoch next) with
      | Some known -> Cryptosim.Digest.equal (Cert.digest known) (Cert.digest next)
      | None -> false
    then Ok ()
    else Error "stale or forked certificate"
  else if Cert.epoch next <> Cert.epoch prev + 1 then
    Error "gap in certificate chain"
  else
    match Cert.verify_succession ~prev ~next with
    | Ok () ->
      t.chain <- next :: t.chain;
      Ok ()
    | Error _ as e -> e

let advance t actions ~signers ~boundary_exec =
  match Reconfig.apply (current t) actions ~signers ~boundary_exec with
  | Error _ as e -> e
  | Ok next -> (
    match install t next with
    | Ok () -> Ok next
    | Error e -> Error e)
