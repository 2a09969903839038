type phase =
  | End_to_end
  | Batch_wait
  | Ingress
  | Preorder
  | Ordering
  | Execution
  | Reply
  | Net_queue
  | Net_transmit
  | Net_arq
  | Net_propagate

let phase_count = 11

let phase_index = function
  | End_to_end -> 0
  | Batch_wait -> 1
  | Ingress -> 2
  | Preorder -> 3
  | Ordering -> 4
  | Execution -> 5
  | Reply -> 6
  | Net_queue -> 7
  | Net_transmit -> 8
  | Net_arq -> 9
  | Net_propagate -> 10

let all_phases =
  [|
    End_to_end;
    Batch_wait;
    Ingress;
    Preorder;
    Ordering;
    Execution;
    Reply;
    Net_queue;
    Net_transmit;
    Net_arq;
    Net_propagate;
  |]

let phase_name = function
  | End_to_end -> "end_to_end"
  | Batch_wait -> "batch_wait"
  | Ingress -> "ingress"
  | Preorder -> "preorder"
  | Ordering -> "ordering"
  | Execution -> "execution"
  | Reply -> "reply"
  | Net_queue -> "net.queue"
  | Net_transmit -> "net.transmit"
  | Net_arq -> "net.arq"
  | Net_propagate -> "net.propagate"

let phase_of_name s =
  let rec find i =
    if i >= phase_count then None
    else if String.equal (phase_name all_phases.(i)) s then Some all_phases.(i)
    else find (i + 1)
  in
  find 0

type t = {
  id : int;
  parent : int;
  trace : int;
  phase : phase;
  node : int;
  label : string;
  t_start : int;
  t_end : int;
}

let duration s = s.t_end - s.t_start
let trace_id ~client ~seq = (client lsl 32) lor (seq land 0xFFFF_FFFF)
let trace_client tr = tr asr 32
let trace_seq tr = tr land 0xFFFF_FFFF
let no_trace = -1

let pp ppf s =
  Format.fprintf ppf "[%d<-%d %s node=%d %d..%dus%s%s]" s.id s.parent
    (phase_name s.phase) s.node s.t_start s.t_end
    (if s.trace >= 0 then
       Printf.sprintf " trace=%d#%d" (trace_client s.trace) (trace_seq s.trace)
     else "")
    (if s.label = "" then "" else " " ^ s.label)
