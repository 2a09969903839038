type principal = int
type secret = { owner : principal; material : int64 }

type t = { mutable materials : int64 array; seed : int64; mutable epoch : int }

(* The digest of ["key:%Ld:%d:%d"], streamed. *)
let derive seed index epoch =
  let a = Digest.start () in
  Digest.add_string a "key:";
  Digest.add_int64 a seed;
  Digest.add_byte a ':';
  Digest.add_int a index;
  Digest.add_byte a ':';
  Digest.add_int a epoch;
  Digest.to_int64 (Digest.finish a)

let create ~seed ~size =
  if size <= 0 then invalid_arg "Keyring.create: size <= 0";
  { materials = Array.init size (fun i -> derive seed i 0); seed; epoch = 0 }

let size t = Array.length t.materials

let check t p =
  if p < 0 || p >= size t then invalid_arg "Keyring: principal out of range"

let secret t p =
  check t p;
  { owner = p; material = t.materials.(p) }

let secret_owner s = s.owner
let secret_material s = s.material

let material_of t p =
  check t p;
  t.materials.(p)

let rotate t p =
  check t p;
  t.epoch <- t.epoch + 1;
  t.materials.(p) <- derive t.seed p t.epoch;
  secret t p
