(* Ownership partition: node -> shard maps plus shard-grouped storage.
   The [owner]/[local] arrays are shared by reference between the
   partition and every [owned] built from it, so a get costs two array
   loads of indirection over the old flat representation — measured in
   the PERF harness against the sticky events/sec floor. *)

type partition = {
  shard_count : int;
  node_count : int;
  owner : int array; (* node -> shard *)
  local : int array; (* node -> index within members.(owner) *)
  member_rows : int array array; (* shard -> member nodes, ascending *)
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
  let sizes = Array.make shards 0 in
  Array.iter (fun s -> sizes.(s) <- sizes.(s) + 1) owner_arr;
  let member_rows = Array.map (fun sz -> Array.make sz 0) sizes in
  let local = Array.make nodes 0 in
  let fill = Array.make shards 0 in
  for node = 0 to nodes - 1 do
    let s = owner_arr.(node) in
    member_rows.(s).(fill.(s)) <- node;
    local.(node) <- fill.(s);
    fill.(s) <- fill.(s) + 1
  done;
  { shard_count = shards; node_count = nodes; owner = owner_arr; local; member_rows }

let singleton ~nodes = make ~shards:1 ~owner:(fun _ -> 0) ~nodes
let shards p = p.shard_count
let nodes p = p.node_count
let owner_of p node = p.owner.(node)
let members p shard = p.member_rows.(shard)

type 'a owned = {
  o_owner : int array; (* shared with the partition *)
  o_local : int array;
  data : 'a array array; (* data.(shard).(local) *)
}

let init p f =
  let data =
    Array.map (fun row -> Array.map (fun node -> f node) row) p.member_rows
  in
  { o_owner = p.owner; o_local = p.local; data }

let get o node = o.data.(o.o_owner.(node)).(o.o_local.(node))
let set o node v = o.data.(o.o_owner.(node)).(o.o_local.(node)) <- v
let row o shard = o.data.(shard)

let iter f o =
  for node = 0 to Array.length o.o_owner - 1 do
    f node (get o node)
  done

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
