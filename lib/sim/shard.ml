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

(* Only the total is read ([Overlay.Net.wan_frames]), so a cross-site
   hop costs one comparison of owners and one increment. *)
type boundary = { mutable frames : int }

let boundary (_ : partition) = { frames = 0 }

let record b ~src_shard ~dst_shard =
  if src_shard <> dst_shard then b.frames <- b.frames + 1

let total_frames b = b.frames

let engine_shard p node = 1 + p.owner.(node)
let engine_shards p = p.shard_count + 1
