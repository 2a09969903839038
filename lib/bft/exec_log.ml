type t = {
  mutable len : int;
  mutable chain : Cryptosim.Digest.t;
  chains : (int, Cryptosim.Digest.t) Hashtbl.t; (* position -> digest *)
}

let empty_chain = Cryptosim.Digest.of_string "exec-log-genesis"

let create () =
  let chains = Hashtbl.create 97 in
  Hashtbl.replace chains 0 empty_chain;
  { len = 0; chain = empty_chain; chains }

let length t = t.len

let append t update =
  t.len <- t.len + 1;
  t.chain <- Cryptosim.Digest.combine t.chain (Update.digest update);
  Hashtbl.replace t.chains t.len t.chain;
  t.len

let chain_digest t = t.chain

let digest_at t pos =
  match Hashtbl.find_opt t.chains pos with
  | Some d -> d
  | None -> invalid_arg "Exec_log.digest_at: position out of range"

let prefix_equal a b =
  let la = length a and lb = length b in
  let common = min la lb in
  (* Compare chain digests at the common length when both logs still
     remember it; positions truncated by snapshots compare trivially. *)
  match (Hashtbl.find_opt a.chains common, Hashtbl.find_opt b.chains common) with
  | Some da, Some db -> Cryptosim.Digest.equal da db
  | _ -> true

let install_snapshot t ~updates ~chain =
  t.len <- updates;
  t.chain <- chain;
  Hashtbl.reset t.chains;
  Hashtbl.replace t.chains updates chain
