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

let is_singleton p = p.max_batch <= 1

let pp ppf p =
  Format.fprintf ppf "batch(max=%d,delay=%dus)" p.max_batch p.max_delay_us

(* ------------------------------------------------------------------ *)
(* Accumulator: one buffered generation at a time. The caller arms one
   timer per generation (on [Arm]); the timer's callback asks [due],
   which re-checks the deadline, so a timer outliving its generation
   (flushed early on size) never ships the next one early. The deadline
   is [oldest + min(armed delay, current delay)]: a live policy swap can
   pull it forward but never past the timer already armed for it. *)

type 'a acc = {
  mutable policy : policy;
      (* live-settable by the runtime tuning plane; see [set_policy] *)
  buf : 'a Queue.t;
  mutable oldest_us : int;  (* arrival time of the oldest buffered item *)
  mutable armed_delay_us : int;  (* the delay its generation's timer got *)
}

type 'a action = Solo | Flush of 'a list | Arm of int | Wait

let acc policy =
  { policy; buf = Queue.create (); oldest_us = 0; armed_delay_us = 0 }

let policy a = a.policy

let set_policy a p = a.policy <- validate p

let take_all a =
  let items = List.of_seq (Queue.to_seq a.buf) in
  Queue.clear a.buf;
  items

let add a ~now x =
  if a.policy.max_batch = 1 && Queue.is_empty a.buf then Solo
  else begin
    if Queue.is_empty a.buf then begin
      a.oldest_us <- now;
      a.armed_delay_us <- a.policy.max_delay_us
    end;
    Queue.add x a.buf;
    if Queue.length a.buf >= a.policy.max_batch then Flush (take_all a)
    else if Queue.length a.buf = 1 then Arm a.policy.max_delay_us
    else Wait
  end

let due a ~now =
  if
    Queue.length a.buf >= a.policy.max_batch
    || ((not (Queue.is_empty a.buf))
       && a.oldest_us + min a.armed_delay_us a.policy.max_delay_us <= now)
  then take_all a
  else []

let clear a = Queue.clear a.buf
