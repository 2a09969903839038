type t = { n : int; f : int; k : int }

let create ~n ~f ~k =
  if f < 0 || k < 0 then invalid_arg "Quorum.create: negative f or k";
  if n < 1 then invalid_arg "Quorum.create: n < 1";
  if n < (3 * f) + (2 * k) + 1 then
    invalid_arg "Quorum.create: n < 3f + 2k + 1";
  { n; f; k }

let minimal ~f ~k = create ~n:((3 * f) + (2 * k) + 1) ~f ~k

let quorum_size t = (2 * t.f) + t.k + 1
let execution_threshold t = t.f + t.k + 1
let suspect_threshold t = t.f + t.k + 1
let reply_threshold t = t.f + 1
let two_quorum_intersection t = (2 * quorum_size t) - t.n

let tolerates_simultaneously t ~compromised ~recovering =
  compromised <= t.f && recovering <= t.k
  && t.n - compromised - recovering >= quorum_size t

let pp ppf t = Format.fprintf ppf "n=%d f=%d k=%d q=%d" t.n t.f t.k (quorum_size t)
