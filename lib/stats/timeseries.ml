type t = {
  mutable times : int array;
  mutable values : float array;
  mutable len : int;
}

let create () = { times = Array.make 64 0; values = Array.make 64 0.; len = 0 }

let grow t =
  let cap = Array.length t.times in
  let times = Array.make (cap * 2) 0 in
  let values = Array.make (cap * 2) 0. in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.values 0 values 0 t.len;
  t.times <- times;
  t.values <- values

let add t ~time_us value =
  if t.len > 0 && time_us < t.times.(t.len - 1) then
    invalid_arg "Timeseries.add: non-monotonic timestamp";
  if t.len = Array.length t.times then grow t;
  t.times.(t.len) <- time_us;
  t.values.(t.len) <- value;
  t.len <- t.len + 1

let to_list t =
  List.init t.len (fun i -> (t.times.(i), t.values.(i)))

let bucketed t ~bucket_us =
  if bucket_us <= 0 then invalid_arg "Timeseries.bucketed: bucket_us <= 0";
  let buckets = Hashtbl.create 97 in
  let order = ref [] in
  for i = 0 to t.len - 1 do
    let b = t.times.(i) / bucket_us * bucket_us in
    let summary =
      match Hashtbl.find_opt buckets b with
      | Some s -> s
      | None ->
        let s = Summary.create () in
        Hashtbl.add buckets b s;
        order := b :: !order;
        s
    in
    Summary.add summary t.values.(i)
  done;
  List.rev_map (fun b -> (b, Hashtbl.find buckets b)) !order

let max_in_buckets t ~bucket_us =
  bucketed t ~bucket_us
  |> List.map (fun (b, s) -> (b, Summary.max_value s))

let span_us t = if t.len < 2 then 0 else t.times.(t.len - 1) - t.times.(0)
