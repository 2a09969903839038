type t = Prime_replica of Prime.Replica.t | Pbft_replica of Pbft.Replica.t

let faults = function
  | Prime_replica p -> Prime.Replica.faults p
  | Pbft_replica p -> Pbft.Replica.faults p

let view = function
  | Prime_replica p -> Prime.Replica.view p
  | Pbft_replica p -> Pbft.Replica.view p

let exec_log = function
  | Prime_replica p -> Prime.Replica.exec_log p
  | Pbft_replica p -> Pbft.Replica.exec_log p

let halted = function
  | Prime_replica p -> Prime.Replica.halted p
  | Pbft_replica p -> Pbft.Replica.halted p

let halt = function
  | Prime_replica p -> Prime.Replica.halt p
  | Pbft_replica p -> Pbft.Replica.halt p

let start = function
  | Prime_replica p -> Prime.Replica.start p
  | Pbft_replica p -> Pbft.Replica.start p

let submit i u =
  match i with
  | Prime_replica p -> Prime.Replica.submit p u
  | Pbft_replica p -> Pbft.Replica.submit p u
