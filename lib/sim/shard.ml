(* Ownership partition: the node -> shard map. *)

type partition = {
  shard_count : int;
  node_count : int;
  owner : int array; (* node -> shard *)
}

let make ~shards ~owner ~nodes =
  if shards < 1 then invalid_arg "Shard.make: shards < 1";
  if nodes < 0 then invalid_arg "Shard.make: nodes < 0";
  let owner_arr = Array.init nodes owner in
  Array.iteri
    (fun node s ->
      if s < 0 || s >= shards then
        invalid_arg
          (Printf.sprintf "Shard.make: owner %d -> shard %d out of range" node s))
    owner_arr;
  { shard_count = shards; node_count = nodes; owner = owner_arr }

let singleton ~nodes = make ~shards:1 ~owner:(fun _ -> 0) ~nodes
let shards p = p.shard_count
let nodes p = p.node_count
let owner_of p node = p.owner.(node)

type boundary = {
  b_shards : int;
  frames : int array; (* src_shard * b_shards + dst_shard *)
  bytes : int array;
}

type crossing = {
  src_shard : int;
  dst_shard : int;
  frames : int;
  bytes : int;
}

let boundary p =
  let k = p.shard_count in
  {
    b_shards = k;
    frames = Array.make (k * k) 0;
    bytes = Array.make (k * k) 0;
  }

let record b ~src_shard ~dst_shard ~bytes =
  if src_shard <> dst_shard then begin
    let i = (src_shard * b.b_shards) + dst_shard in
    b.frames.(i) <- b.frames.(i) + 1;
    b.bytes.(i) <- b.bytes.(i) + bytes
  end

let crossings b =
  let out = ref [] in
  for i = (b.b_shards * b.b_shards) - 1 downto 0 do
    if b.frames.(i) > 0 then
      out :=
        {
          src_shard = i / b.b_shards;
          dst_shard = i mod b.b_shards;
          frames = b.frames.(i);
          bytes = b.bytes.(i);
        }
        :: !out
  done;
  !out

let total_frames (b : boundary) = Array.fold_left ( + ) 0 b.frames
let total_bytes (b : boundary) = Array.fold_left ( + ) 0 b.bytes

let engine_shard p node = 1 + p.owner.(node)
let engine_shards p = p.shard_count + 1
