(* SplitMix64 over a bank of streams. Stream [i]'s 64-bit state lives
   unboxed in bytes [8i, 8i+8) of one buffer: without flambda a
   [mutable int64] field boxes on every store and a non-inlined
   [int64]-returning step boxes its result, so the step and the output
   mix are inlined into every draw and no draw allocates. *)

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

module Bank = struct
  type t = Bytes.t

  let create n seed =
    let b = Bytes.create (8 * n) in
    for i = 0 to n - 1 do
      Bytes.set_int64_ne b (8 * i) (seed i)
    done;
    b

  let length b = Bytes.length b / 8

  let[@inline] next_int64 b i =
    let s = Int64.add (Bytes.get_int64_ne b (8 * i)) golden_gamma in
    Bytes.set_int64_ne b (8 * i) s;
    mix s

  let[@inline] int b i bound =
    if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
    (* Drop to 62 bits so the value fits a non-negative OCaml int. *)
    let r = Int64.to_int (Int64.shift_right_logical (next_int64 b i) 2) in
    r mod bound

  let[@inline] float b i bound =
    (* 53 random bits mapped to [0, 1). *)
    let bits = Int64.shift_right_logical (next_int64 b i) 11 in
    Int64.to_float bits /. 9007199254740992. *. bound

  let[@inline] bool b i = Int64.logand (next_int64 b i) 1L = 1L

  let[@inline] bernoulli b i p =
    if p <= 0. then false else if p >= 1. then true else float b i 1. < p

  (* Unchecked accesses: [draws] checks [i] once for all of them. *)
  external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
  external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

  (* One stream's run of draws with its state in a local: one load, one
     store and no C call, where each single draw loads and stores the
     state through a bounds check and [bernoulli] converts to float.
     [bernoulli] tests [u /. 2^53 < p] for the draw's top 53 bits [u];
     for 0 < p < 1 that is [u < ceil (p *. 2^53)], since [u], the
     division and the product are all exact and an integer is below a
     real iff it is below the real's ceiling. *)
  let draws b i bounds p n =
    if i < 0 || i >= length b then invalid_arg "Rng.Bank.draws: no such stream";
    if n < 0 || n >= Sys.int_size then invalid_arg "Rng.Bank.draws: bad count";
    let s = ref (get64u b (8 * i)) in
    for j = 0 to Array.length bounds - 1 do
      let bound = Array.unsafe_get bounds j in
      if bound <= 0 then begin
        set64u b (8 * i) !s;
        invalid_arg "Rng.int: bound <= 0"
      end;
      s := Int64.add !s golden_gamma;
      let r = Int64.to_int (Int64.shift_right_logical (mix !s) 2) in
      Array.unsafe_set bounds j (r mod bound)
    done;
    let hits = ref 0 in
    if p >= 1. then hits := (1 lsl n) - 1
    else if not (p <= 0.) then begin
      (* A nan [p] draws and never hits, as in [bernoulli]. *)
      let threshold =
        if p > 0. then
          let x = p *. 9007199254740992. in
          let c = Float.to_int x in
          if Float.of_int c < x then c + 1 else c
        else 0
      in
      for a = 0 to n - 1 do
        s := Int64.add !s golden_gamma;
        if Int64.to_int (Int64.shift_right_logical (mix !s) 11) < threshold then
          hits := !hits lor (1 lsl a)
      done
    end;
    set64u b (8 * i) !s;
    !hits
end

type t = Bank.t

let create seed = Bank.create 1 (fun _ -> seed)
let next_int64 t = Bank.next_int64 t 0
let split t = create (Bank.next_int64 t 0)

(* Pure seed derivation for sweep instance [index] of a sweep rooted at
   [seed]: equivalent in spirit to splitting [index + 1] times, but a
   closed form over (seed, index) so parallel workers never share
   generator state. The extra xor/mix round decorrelates the stream from
   a plain SplitMix sequence seeded at [seed] (instance 0's stream must
   not alias the root stream's own outputs). *)
let derive ~seed ~index =
  if index < 0 then invalid_arg "Rng.derive: index < 0";
  let z = Int64.add seed (Int64.mul golden_gamma (Int64.of_int (index + 1))) in
  mix (Int64.logxor (mix z) 0x5851F42D4C957F2DL)

let int t bound = Bank.int t 0 bound
let float t bound = Bank.float t 0 bound
let bool t = Bank.bool t 0
let bernoulli t p = Bank.bernoulli t 0 p

let exponential t ~mean =
  let u = Bank.float t 0 1. in
  (* Guard against log 0. *)
  let u = if u <= 0. then 1e-12 else u in
  -.mean *. log u

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
