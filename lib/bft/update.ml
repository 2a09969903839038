type t = {
  client : Types.client;
  client_seq : int;
  operation : string;
  submitted_us : int;
  digest : Cryptosim.Digest.t;
}

(* The digest of ["update:%d:%d:%s"], streamed. Every simulated
   authenticator over the update reads it, so it is hashed once here. *)
let hash ~client ~client_seq ~operation =
  let module D = Cryptosim.Digest in
  let a = D.start () in
  D.add_string a "update:";
  D.add_int a client;
  D.add_byte a ':';
  D.add_int a client_seq;
  D.add_byte a ':';
  D.add_string a operation;
  D.finish a

let create ~client ~client_seq ~operation ~submitted_us =
  if client_seq < 0 then invalid_arg "Update.create: negative client_seq";
  {
    client;
    client_seq;
    operation;
    submitted_us;
    digest = hash ~client ~client_seq ~operation;
  }

let key u = (u.client, u.client_seq)
let digest u = u.digest

let equal a b =
  a.client = b.client && a.client_seq = b.client_seq
  && String.equal a.operation b.operation

let compare_key a b = compare (key a) (key b)

let pp ppf u = Format.fprintf ppf "u(%d,%d)" u.client u.client_seq
