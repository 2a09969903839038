type state = Up | Down | Linking

type t = {
  rng : Sim.Rng.Bank.t;  (* stream [i]: session [i]'s keep-alive draws *)
  loss : float;
  state : state array;
  next_seq : int array;
  last_accepted : int array;  (* sequence high-watermark *)
  mutable churn : int;
  mutable dups_dropped : int;
}

(* A fresh session starts in [Linking]: the first scan round performs
   the capability-advertisement handshake before any report flows. *)
let create ~count ~seed ~loss =
  {
    rng = Sim.Rng.Bank.create count seed;
    loss;
    state = Array.make count Linking;
    next_seq = Array.make count 0;
    last_accepted = Array.make count (-1);
    churn = 0;
    dups_dropped = 0;
  }

let state t i = t.state.(i)
let churn t = t.churn

let step t i =
  match t.state.(i) with
  | Up ->
    (* The keep-alive runs at scan cadence; a lost keep-alive (with
       probability [loss]) trips the link-down timeout. *)
    if t.loss > 0. && Sim.Rng.Bank.bernoulli t.rng i t.loss then begin
      t.state.(i) <- Down;
      t.churn <- t.churn + 1;
      `Offline
    end
    else `Online
  | Down ->
    (* One silent round of timeout back-off, then re-handshake. *)
    t.state.(i) <- Linking;
    `Offline
  | Linking ->
    t.state.(i) <- Up;
    t.churn <- t.churn + 1;
    `Relink

let next_seq t i =
  let s = t.next_seq.(i) in
  t.next_seq.(i) <- s + 1;
  s

let accept t i ~seq =
  if seq > t.last_accepted.(i) then begin
    t.last_accepted.(i) <- seq;
    true
  end
  else begin
    t.dups_dropped <- t.dups_dropped + 1;
    false
  end

let dups_dropped t = t.dups_dropped
