(* Epoch-ed membership certificates.

   A certificate is the authoritative description of one epoch of the
   system: which sites exist, what role each plays (modeled on the
   SCADA_SV_MODES active/backup split of the reference implementation),
   which global replica ids belong to each site, and the resilience
   parameters (f, k) the epoch is provisioned for.  Certificates form a
   hash chain: each non-genesis cert carries the digest of its
   predecessor, the ordered-stream execution index at which it takes
   effect (the epoch boundary), and the set of old-epoch members that
   vouched for the transition.  Succession is only valid when at least
   a quorum of the previous epoch signed, which is what makes "no two
   epochs active simultaneously" checkable by the oracle. *)

type role = Active_cc | Backup_cc | Data_center

let role_name = function
  | Active_cc -> "active-cc"
  | Backup_cc -> "backup-cc"
  | Data_center -> "data-center"

let role_tag = function Active_cc -> 0 | Backup_cc -> 1 | Data_center -> 2

type site = { site_id : int; role : role; members : int list }

type t = {
  epoch : int;
  f : int;
  k : int;
  boundary_exec : int;
      (* execution index at which this epoch takes effect; 0 for genesis *)
  sites : site list;
  signers : int list; (* previous-epoch members vouching the transition *)
  prev_digest : Cryptosim.Digest.t; (* zero for genesis *)
}

let epoch t = t.epoch
let f t = t.f
let k t = t.k
let boundary_exec t = t.boundary_exec

let members t =
  List.concat_map (fun s -> s.members) t.sites

let n t = List.length (members t)

(* Spire sizing comes from [Bft.Quorum]: the minimal system for the
   epoch's f and k gives the replica floor and the thresholds.  An epoch
   may over-provision (n larger than the floor) but never
   under-provision.  Only defined for f, k >= 0 with a floor of at most
   [Bft.Quorum.max_n], which [validate] checks first. *)
let sizing t = Bft.Quorum.minimal ~f:t.f ~k:t.k
let quorum_size t = Bft.Quorum.quorum_size (sizing t)
let reply_threshold t = Bft.Quorum.reply_threshold (sizing t)

let is_member t r = List.mem r (members t)

let validate t =
  let ms = members t in
  let nm = List.length ms in
  if t.f < 0 || t.k < 0 then Error "negative resilience parameter"
  else if t.sites = [] then Error "no sites"
  else if List.exists (fun s -> s.members = []) t.sites then
    Error "empty site"
  else if List.length (List.sort_uniq compare ms) <> nm then
    Error "duplicate member across sites"
  else if
    List.length
      (List.sort_uniq compare (List.map (fun s -> s.site_id) t.sites))
    <> List.length t.sites
  then Error "duplicate site id"
  else if List.exists (fun m -> m < 0) ms then Error "negative member id"
  else if nm > Bft.Quorum.max_n then
    Error (Printf.sprintf "n=%d above %d replicas" nm Bft.Quorum.max_n)
  else
    match sizing t with
    | exception Invalid_argument _ ->
      Error
        (Printf.sprintf "f=%d k=%d need more than %d replicas" t.f t.k
           Bft.Quorum.max_n)
    | floor when nm < floor.Bft.Quorum.n ->
      Error
        (Printf.sprintf "n=%d below the resilience floor %d" nm
           floor.Bft.Quorum.n)
    | _ ->
      if not (List.exists (fun s -> s.role = Active_cc) t.sites) then
        Error "no active control center"
      else if
        List.length (List.filter (fun s -> s.role = Active_cc) t.sites) > 1
      then Error "multiple active control centers"
      else Ok ()

(* Canonical serialization feeding the chain digest.  Signers are part
   of the digested content so a transition cannot be re-attributed. *)
let canonical t =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "cert|e=%d|f=%d|k=%d|b=%d|" t.epoch t.f t.k
       t.boundary_exec);
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "s%d:%d:[%s];" s.site_id (role_tag s.role)
           (String.concat "," (List.map string_of_int s.members))))
    t.sites;
  Buffer.add_string b
    (Printf.sprintf "|v=[%s]|p=%s"
       (String.concat "," (List.map string_of_int t.signers))
       (Cryptosim.Digest.to_hex t.prev_digest));
  Buffer.contents b

let digest t = Cryptosim.Digest.of_string (canonical t)

(* Succession: [next] extends [prev] iff the chain links, the boundary
   advances, at least a quorum of [prev]'s members vouched, [next] is
   well formed, and [next]'s quorum still meets [prev]'s intersection
   floor.  Two [prev] quorums overlap in f_prev + 1 replicas (at minimal
   n), which is what pins the agreed prefix across the boundary; a
   successor quorum smaller than that could be made entirely of
   replicas that never saw it (f=1 -> f=0 would shrink the quorum from
   4 to 1). *)
let verify_succession ~prev ~next =
  if next.epoch <> prev.epoch + 1 then Error "non-consecutive epoch"
  else if not (Cryptosim.Digest.equal next.prev_digest (digest prev)) then
    Error "broken digest chain"
  else if next.boundary_exec < prev.boundary_exec then
    Error "boundary moved backwards"
  else if
    List.exists (fun s -> not (is_member prev s)) next.signers
  then Error "signer not a previous-epoch member"
  else if
    List.length (List.sort_uniq compare next.signers) < quorum_size prev
  then
    Error
      (Printf.sprintf "only %d signers, need previous-epoch quorum %d"
         (List.length (List.sort_uniq compare next.signers))
         (quorum_size prev))
  else
    match validate next with
    | Error _ as e -> e
    | Ok () when quorum_size next < reply_threshold prev ->
        Error
          (Printf.sprintf
             "new-epoch quorum %d below previous-epoch intersection floor %d"
             (quorum_size next) (reply_threshold prev))
    | Ok () -> Ok ()

let genesis ~f ~k ~sites =
  let t =
    {
      epoch = 0;
      f;
      k;
      boundary_exec = 0;
      sites;
      signers = [];
      prev_digest = Cryptosim.Digest.of_int64 0L;
    }
  in
  match validate t with
  | Ok () -> t
  | Error e -> invalid_arg ("Member.Cert.genesis: " ^ e)

let pp ppf t =
  Format.fprintf ppf "epoch %d (f=%d k=%d n=%d @@%d) [%s]" t.epoch t.f t.k
    (n t) t.boundary_exec
    (String.concat "; "
       (List.map
          (fun s ->
            Printf.sprintf "site %d %s {%s}" s.site_id (role_name s.role)
              (String.concat "," (List.map string_of_int s.members)))
          t.sites))
