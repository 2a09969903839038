type policy = { max_batch : int; max_delay_us : int }

let singleton = { max_batch = 1; max_delay_us = 0 }

let validate p =
  if p.max_batch < 1 then
    invalid_arg "Bft.Batch.validate: max_batch must be >= 1";
  if p.max_delay_us < 0 then
    invalid_arg "Bft.Batch.validate: max_delay_us must be >= 0";
  p

let create ?(max_delay_us = 10_000) ~max_batch () =
  validate { max_batch; max_delay_us }

(* ------------------------------------------------------------------ *)
(* Accumulator: one buffered generation at a time. The caller arms one
   timer per generation (on [Arm]); the timer's callback asks [due],
   which re-checks the deadline, so a timer outliving its generation
   (flushed early on size) never ships the next one early. [add]
   flushes a generation the moment it fills, so a buffered generation
   is always short of [max_batch] and only its deadline makes it due. *)

type 'a acc = {
  policy : policy;
  buf : 'a Queue.t;
  mutable oldest_us : int;  (* arrival time of the oldest buffered item *)
}

type 'a action = Solo | Flush of 'a list | Arm of int | Wait

let acc policy = { policy; buf = Queue.create (); oldest_us = 0 }

let take_all a =
  let items = List.of_seq (Queue.to_seq a.buf) in
  Queue.clear a.buf;
  items

let add a ~now x =
  if a.policy.max_batch = 1 then Solo
  else begin
    if Queue.is_empty a.buf then a.oldest_us <- now;
    Queue.add x a.buf;
    if Queue.length a.buf >= a.policy.max_batch then Flush (take_all a)
    else if Queue.length a.buf = 1 then Arm a.policy.max_delay_us
    else Wait
  end

let due a ~now =
  if
    (not (Queue.is_empty a.buf))
    && a.oldest_us + a.policy.max_delay_us <= now
  then take_all a
  else []

let clear a = Queue.clear a.buf
