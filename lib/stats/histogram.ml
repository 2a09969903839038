type t = {
  mutable data : float array;
  mutable len : int;
  mutable sorted : bool;
}

let create () = { data = Array.make 64 0.; len = 0; sorted = true }

let grow t =
  let cap = Array.length t.data in
  let data = Array.make (cap * 2) 0. in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let add t x =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.sorted <- false

let count t = t.len

let ensure_sorted t =
  if not t.sorted then begin
    let sub = Array.sub t.data 0 t.len in
    Array.sort compare sub;
    Array.blit sub 0 t.data 0 t.len;
    t.sorted <- true
  end

let percentile t p =
  if t.len = 0 then invalid_arg "Histogram.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Histogram.percentile: range";
  ensure_sorted t;
  if t.len = 1 then t.data.(0)
  else begin
    let rank = p /. 100. *. float_of_int (t.len - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (t.len - 1) in
    let frac = rank -. float_of_int lo in
    t.data.(lo) +. (frac *. (t.data.(hi) -. t.data.(lo)))
  end


let mean t =
  if t.len = 0 then invalid_arg "Histogram.mean: empty";
  let sum = ref 0. in
  for i = 0 to t.len - 1 do
    sum := !sum +. t.data.(i)
  done;
  !sum /. float_of_int t.len

let min_value t =
  if t.len = 0 then invalid_arg "Histogram.min_value: empty";
  ensure_sorted t;
  t.data.(0)

let max_value t =
  if t.len = 0 then invalid_arg "Histogram.max_value: empty";
  ensure_sorted t;
  t.data.(t.len - 1)

let fraction_below t x =
  if t.len = 0 then 0.
  else begin
    ensure_sorted t;
    (* Binary search for the rightmost index with data.(i) <= x. *)
    let rec loop lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if t.data.(mid) <= x then loop (mid + 1) hi else loop lo mid
      end
    in
    let idx = loop 0 t.len in
    float_of_int idx /. float_of_int t.len
  end

let cdf t ~points =
  if t.len = 0 || points <= 0 then []
  else begin
    ensure_sorted t;
    let lo = t.data.(0) and hi = t.data.(t.len - 1) in
    let step = if points = 1 then 0. else (hi -. lo) /. float_of_int (points - 1) in
    List.init points (fun i ->
        let v = lo +. (float_of_int i *. step) in
        (v, fraction_below t v))
  end

let pp ppf t =
  if t.len = 0 then Format.fprintf ppf "empty"
  else
    Format.fprintf ppf
      "n=%d mean=%.3f p50=%.3f p90=%.3f p99=%.3f p99.9=%.3f max=%.3f" t.len
      (mean t) (percentile t 50.) (percentile t 90.) (percentile t 99.)
      (percentile t 99.9) (max_value t)
