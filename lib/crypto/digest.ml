type t = int64

(* FNV-1a, 64-bit. The running hash is tracked as two 32-bit limbs held
   in native ints: without flambda every [Int64] operation allocates a
   boxed value, which made this — the innermost loop of every simulated
   authenticator — a dominant allocation site. The limb arithmetic is
   bit-exact with the Int64 formulation: with
   [fnv_prime = 0x100000001b3 = 2^40 + 0x1b3] and state [(hi:lo)],

     (hi:lo) * prime mod 2^64  has
       lo' = (lo * 0x1b3) mod 2^32
       hi' = (hi * 0x1b3 + carry + lo * 2^8) mod 2^32,
       carry = (lo * 0x1b3) / 2^32

   (the 2^40 term only reaches the high limb), and every intermediate
   fits comfortably in a 63-bit native int. The offset basis
   0xcbf29ce484222325 splits into hi = 0xcbf29ce4, lo = 0x84222325. *)

let mask32 = 0xFFFFFFFF
let prime_low = 0x1b3
let offset_hi = 0xcbf29ce4
let offset_lo = 0x84222325

type acc = { mutable hi : int; mutable lo : int }

let start () = { hi = offset_hi; lo = offset_lo }

(* [c] is one byte, 0..255. *)
let[@inline] mix a c =
  let l = a.lo lxor c in
  let p = l * prime_low in
  a.lo <- p land mask32;
  a.hi <- ((a.hi * prime_low) + (p lsr 32) + (l lsl 8)) land mask32

let finish a = Int64.logor (Int64.shift_left (Int64.of_int a.hi) 32) (Int64.of_int a.lo)
let add_byte a c = mix a (Char.code c)

(* [mix] written out over local refs, which the compiler keeps in
   registers for the whole string (a ref passed to a function is
   heap-allocated, an inlined one included). *)
let add_string a s =
  let hi = ref a.hi and lo = ref a.lo in
  for i = 0 to String.length s - 1 do
    let l = !lo lxor Char.code (String.unsafe_get s i) in
    let p = l * prime_low in
    lo := p land mask32;
    hi := ((!hi * prime_low) + (p lsr 32) + (l lsl 8)) land mask32
  done;
  a.hi <- !hi;
  a.lo <- !lo

(* Decimal digits of [m <= 0], most significant first. Working on the
   non-positive side covers [min_int], whose magnitude has no int. *)
let rec add_digits a m =
  if m <= -10 then add_digits a (m / 10);
  mix a (48 - (m mod 10))

(* Exactly [k] digits of [m <= 0], zero-padded on the left. *)
let rec add_padded a m k =
  if k > 1 then add_padded a (m / 10) (k - 1);
  mix a (48 - (m mod 10))

let add_int a n = if n < 0 then (mix a 45; add_digits a n) else add_digits a (-n)

(* [v = hi * 10^18 + lo] with [|hi| <= 9], [|lo| < 10^18] and both of
   [v]'s sign, so each half is a native int and no [Int64] is boxed. *)
let e18 = 1_000_000_000_000_000_000L

let add_int64 a v =
  let hi = Int64.to_int (Int64.div v e18) and lo = Int64.to_int (Int64.rem v e18) in
  if hi < 0 || lo < 0 then mix a 45;
  let hi = if hi > 0 then -hi else hi and lo = if lo > 0 then -lo else lo in
  if hi = 0 then add_digits a lo
  else begin
    add_digits a hi;
    add_padded a lo 18
  end

let of_string s =
  let a = start () in
  add_string a s;
  finish a

(* The 8 big-endian bytes of [v]. *)
let add_be a v =
  let hi = Int64.to_int (Int64.shift_right_logical v 32) land mask32 in
  let lo = Int64.to_int v land mask32 in
  mix a (hi lsr 24);
  mix a ((hi lsr 16) land 0xff);
  mix a ((hi lsr 8) land 0xff);
  mix a (hi land 0xff);
  mix a (lo lsr 24);
  mix a ((lo lsr 16) land 0xff);
  mix a ((lo lsr 8) land 0xff);
  mix a (lo land 0xff)

let combine x y =
  let a = start () in
  add_be a x;
  add_be a y;
  finish a

let equal = Int64.equal
let compare = Int64.compare
let to_hex t = Printf.sprintf "%016Lx" t
let to_int64 t = t
let of_int64 v = v
let pp ppf t = Format.pp_print_string ppf (to_hex t)
