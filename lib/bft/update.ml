type t = {
  client : Types.client;
  client_seq : int;
  operation : string;
  submitted_us : int;
}

let create ~client ~client_seq ~operation ~submitted_us =
  if client_seq < 0 then invalid_arg "Update.create: negative client_seq";
  { client; client_seq; operation; submitted_us }

let key u = (u.client, u.client_seq)

(* The digest of ["update:%d:%d:%s"], streamed: this key is hashed for
   every simulated authenticator. *)
let digest u =
  let module D = Cryptosim.Digest in
  let a = D.start () in
  D.add_string a "update:";
  D.add_int a u.client;
  D.add_byte a ':';
  D.add_int a u.client_seq;
  D.add_byte a ':';
  D.add_string a u.operation;
  D.finish a

let equal a b =
  a.client = b.client && a.client_seq = b.client_seq
  && String.equal a.operation b.operation

let compare_key a b = compare (key a) (key b)

let pp ppf u = Format.fprintf ppf "u(%d,%d)" u.client u.client_seq
