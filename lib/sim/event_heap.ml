(* Parallel-array binary min-heap: times and tie-breaking sequence
   numbers live in unboxed int arrays, events in a companion array, so
   a push allocates nothing in steady state (the previous representation
   boxed a fresh 3-field entry record per event). *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable events : 'a array;
  mutable len : int;
  mutable next_seq : int;
}

let create () =
  {
    times = [||];
    seqs = [||];
    events = [||];
    len = 0;
    next_seq = 0;
  }

(* Hole-based sifting: the moving entry is held in locals while the
   entries it passes shift one level into the hole, and it is written
   once, at its final slot — one move per level rather than a swap,
   since every write to the boxed events array is a [caml_modify]. *)

(* Place [(time, seq, ev)] at or above slot [start], whose current
   contents are dead. *)
let sift_up t start ~time ~seq ev =
  let i = ref start in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = t.times.(parent) in
    if time < pt || (time = pt && seq < t.seqs.(parent)) then begin
      t.times.(!i) <- pt;
      t.seqs.(!i) <- t.seqs.(parent);
      t.events.(!i) <- t.events.(parent);
      i := parent
    end
    else continue := false
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.events.(!i) <- ev

(* Place [(time, seq, ev)] at or below slot [start], whose current
   contents are dead, among the first [t.len] slots. *)
let sift_down t start ~time ~seq ev =
  let i = ref start in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= t.len then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < t.len
           && (t.times.(r) < t.times.(l)
              || (t.times.(r) = t.times.(l) && t.seqs.(r) < t.seqs.(l)))
        then r
        else l
      in
      let ct = t.times.(c) in
      if ct < time || (ct = time && t.seqs.(c) < seq) then begin
        t.times.(!i) <- ct;
        t.seqs.(!i) <- t.seqs.(c);
        t.events.(!i) <- t.events.(c);
        i := c
      end
      else continue := false
    end
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.events.(!i) <- ev

let grow t witness =
  let cap = max 64 (2 * Array.length t.times) in
  let times = Array.make cap 0 in
  let seqs = Array.make cap 0 in
  let events = Array.make cap witness in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.events 0 events 0 t.len;
  t.times <- times;
  t.seqs <- seqs;
  t.events <- events

let push t ~time event =
  if t.len >= Array.length t.times then grow t event;
  let i = t.len in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.len <- t.len + 1;
  sift_up t i ~time ~seq event

let is_empty t = t.len = 0
let size t = t.len

let min_time t =
  if t.len = 0 then invalid_arg "Event_heap.min_time: empty heap";
  t.times.(0)

let min_event t =
  if t.len = 0 then invalid_arg "Event_heap.min_event: empty heap";
  t.events.(0)

let pop_min t =
  if t.len = 0 then invalid_arg "Event_heap.pop_min: empty heap";
  let ev = t.events.(0) in
  t.len <- t.len - 1;
  if t.len > 0 then begin
    let last = t.len in
    sift_down t 0 ~time:t.times.(last) ~seq:t.seqs.(last) t.events.(last);
    (* Drop the vacated slot's reference so the GC can reclaim it. *)
    t.events.(last) <- t.events.(0)
  end;
  ev

let pop t =
  if t.len = 0 then None
  else begin
    let time = t.times.(0) in
    let ev = pop_min t in
    Some (time, ev)
  end

let compact t ~keep =
  let old_len = t.len in
  let j = ref 0 in
  for i = 0 to old_len - 1 do
    if keep t.events.(i) then begin
      if !j < i then begin
        t.times.(!j) <- t.times.(i);
        t.seqs.(!j) <- t.seqs.(i);
        t.events.(!j) <- t.events.(i)
      end;
      incr j
    end
  done;
  t.len <- !j;
  (* Release references of removed entries. *)
  if t.len > 0 then
    for i = t.len to old_len - 1 do
      t.events.(i) <- t.events.(0)
    done;
  (* Heapify: original (time, seq) keys are preserved, so the pop order
     of surviving entries is exactly what it would have been — keys are
     unique, making heap-internal layout unobservable. *)
  for i = (t.len / 2) - 1 downto 0 do
    sift_down t i ~time:t.times.(i) ~seq:t.seqs.(i) t.events.(i)
  done
