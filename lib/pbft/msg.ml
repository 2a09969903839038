type proposal = { seq : Bft.Types.seqno; updates : Bft.Update.t list }

(* Seeded with the digest of ["noop:%d"] or ["prop:%d"], streamed. *)
let proposal_digest p =
  let module D = Cryptosim.Digest in
  let a = D.start () in
  D.add_string a (match p.updates with [] -> "noop:" | _ :: _ -> "prop:");
  D.add_int a p.seq;
  List.fold_left
    (fun acc u -> D.combine acc (Bft.Update.digest u))
    (D.finish a) p.updates

type prepared_entry = {
  entry_seq : Bft.Types.seqno;
  entry_view : Bft.Types.view;
  entry_updates : Bft.Update.t list;
}

type t =
  | Request of { update : Bft.Update.t; broadcast : bool }
  | Preprepare of { view : Bft.Types.view; proposal : proposal }
  | Prepare of {
      view : Bft.Types.view;
      seq : Bft.Types.seqno;
      digest : Cryptosim.Digest.t;
    }
  | Commit of {
      view : Bft.Types.view;
      seq : Bft.Types.seqno;
      digest : Cryptosim.Digest.t;
    }
  | Checkpoint of { seq : Bft.Types.seqno; chain : Cryptosim.Digest.t }
  | Viewchange of {
      new_view : Bft.Types.view;
      last_stable : Bft.Types.seqno;
      prepared : prepared_entry list;
    }
  | Newview of {
      view : Bft.Types.view;
      proposals : proposal list;
      stable_seq : Bft.Types.seqno;
    }

let pp ppf = function
  | Request { update; broadcast } ->
    Format.fprintf ppf "Request(%a%s)" Bft.Update.pp update
      (if broadcast then ",bcast" else "")
  | Preprepare { view; proposal } ->
    Format.fprintf ppf "Preprepare(v%d,s%d,%d upd)" view proposal.seq
      (List.length proposal.updates)
  | Prepare { view; seq; _ } -> Format.fprintf ppf "Prepare(v%d,s%d)" view seq
  | Commit { view; seq; _ } -> Format.fprintf ppf "Commit(v%d,s%d)" view seq
  | Checkpoint { seq; _ } -> Format.fprintf ppf "Checkpoint(s%d)" seq
  | Viewchange { new_view; _ } -> Format.fprintf ppf "Viewchange(v%d)" new_view
  | Newview { view; proposals; _ } ->
    Format.fprintf ppf "Newview(v%d,%d props)" view (List.length proposals)
