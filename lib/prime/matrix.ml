type vector = int array
type t = vector array

let empty_vector ~n = Array.make n 0
let empty ~n = Array.init n (fun _ -> empty_vector ~n)
let copy m = Array.map Array.copy m

let merge_vector a b =
  if Array.length a <> Array.length b then
    invalid_arg "Matrix.merge_vector: length mismatch";
  Array.init (Array.length a) (fun i -> max a.(i) b.(i))

let merge a b =
  if Array.length a <> Array.length b then
    invalid_arg "Matrix.merge: size mismatch";
  Array.init (Array.length a) (fun i -> merge_vector a.(i) b.(i))

let eligible m ~threshold =
  let n = Array.length m in
  if threshold < 1 || threshold > n then
    invalid_arg "Matrix.eligible: threshold out of range";
  Array.init n (fun j ->
      let column = Array.init n (fun i -> m.(i).(j)) in
      Array.sort (fun a b -> compare b a) column;
      (* After a descending sort, element [threshold-1] is the largest
         value reported by at least [threshold] rows. *)
      column.(threshold - 1))

let digest m =
  let buf = Buffer.create 256 in
  Array.iter
    (fun row ->
      Array.iter
        (fun v ->
          Buffer.add_string buf (string_of_int v);
          Buffer.add_char buf ',')
        row;
      Buffer.add_char buf ';')
    m;
  Cryptosim.Digest.of_string (Buffer.contents buf)

let vector_dominates a b =
  let ok = ref true in
  Array.iteri (fun i v -> if v < b.(i) then ok := false) a;
  !ok

let is_empty m = Array.for_all (Array.for_all (fun v -> v = 0)) m

let equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun ra rb -> ra = rb) a b

let pp_vector ppf v =
  Format.fprintf ppf "[%s]"
    (String.concat ";" (Array.to_list (Array.map string_of_int v)))

let pp ppf m =
  Array.iter (fun row -> Format.fprintf ppf "%a@ " pp_vector row) m
