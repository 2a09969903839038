type vector = int array
type t = vector array

let empty_vector ~n = Array.make n 0
let empty ~n = Array.init n (fun _ -> empty_vector ~n)
let copy m = Array.map Array.copy m

let well_formed ~n m =
  Array.length m = n
  &&
  let square = ref true in
  for i = 0 to n - 1 do
    if Array.length m.(i) <> n then square := false
  done;
  !square

let merge_vector a b =
  let n = Array.length a in
  if n <> Array.length b then invalid_arg "Matrix.merge_vector: length mismatch";
  let r = Array.make n 0 in
  for i = 0 to n - 1 do
    r.(i) <- Int.max a.(i) b.(i)
  done;
  r

let merge a b =
  let n = Array.length a in
  if n <> Array.length b then invalid_arg "Matrix.merge: size mismatch";
  let r = Array.make n [||] in
  for i = 0 to n - 1 do
    r.(i) <- merge_vector a.(i) b.(i)
  done;
  r

let eligible m ~threshold =
  let n = Array.length m in
  if threshold < 1 || threshold > n then
    invalid_arg "Matrix.eligible: threshold out of range";
  let e = Array.make n 0 in
  (* [top.(0 .. kept-1)] holds the largest values of column [j] seen so
     far, in descending order; once all rows are in, [top.(threshold-1)]
     is the largest value reported by at least [threshold] rows. *)
  let top = Array.make threshold 0 in
  for j = 0 to n - 1 do
    let kept = ref 0 in
    for i = 0 to n - 1 do
      let v = m.(i).(j) in
      let slot =
        if !kept < threshold then begin
          incr kept;
          !kept - 1
        end
        else if v > top.(threshold - 1) then threshold - 1
        else -1
      in
      if slot >= 0 then begin
        let p = ref slot in
        while !p > 0 && top.(!p - 1) < v do
          top.(!p) <- top.(!p - 1);
          decr p
        done;
        top.(!p) <- v
      end
    done;
    e.(j) <- top.(threshold - 1)
  done;
  e

(* Hashes each entry's decimal digits and [','], with [';'] after each
   row, streamed. *)
let digest m =
  let module D = Cryptosim.Digest in
  let a = D.start () in
  for i = 0 to Array.length m - 1 do
    let row = m.(i) in
    for j = 0 to Array.length row - 1 do
      D.add_int a row.(j);
      D.add_byte a ','
    done;
    D.add_byte a ';'
  done;
  D.finish a

let vector_dominates a b =
  let ok = ref true in
  Array.iteri (fun i v -> if v < b.(i) then ok := false) a;
  !ok

let equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun ra rb -> ra = rb) a b

let pp_vector ppf v =
  Format.fprintf ppf "[%s]"
    (String.concat ";" (Array.to_list (Array.map string_of_int v)))

let pp ppf m =
  Array.iter (fun row -> Format.fprintf ppf "%a@ " pp_vector row) m
