type replica = int
type client = int
type view = int
type seqno = int

let leader_of ~n view =
  if n <= 0 then invalid_arg "Types.leader_of: n <= 0";
  view mod n
