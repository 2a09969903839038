(* Unit and property tests for the simulation engine. *)

let test_schedule_ordering () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  ignore (Sim.Engine.schedule e ~delay_us:30 (fun () -> order := 3 :: !order));
  ignore (Sim.Engine.schedule e ~delay_us:10 (fun () -> order := 1 :: !order));
  ignore (Sim.Engine.schedule e ~delay_us:20 (fun () -> order := 2 :: !order));
  Sim.Engine.run_until_quiescent e;
  Alcotest.(check (list int)) "timestamp order" [ 1; 2; 3 ] (List.rev !order)

let test_same_time_fifo () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore (Sim.Engine.schedule e ~delay_us:100 (fun () -> order := i :: !order))
  done;
  Sim.Engine.run_until_quiescent e;
  Alcotest.(check (list int)) "insertion order at equal time" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_clock_advances () =
  let e = Sim.Engine.create () in
  let seen = ref (-1) in
  ignore (Sim.Engine.schedule e ~delay_us:500 (fun () -> seen := Sim.Engine.now e));
  Sim.Engine.run e ~until_us:1_000;
  Alcotest.(check int) "callback saw its own time" 500 !seen;
  Alcotest.(check int) "clock at horizon" 1_000 (Sim.Engine.now e)

let test_run_until_horizon_only () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  ignore (Sim.Engine.schedule e ~delay_us:2_000 (fun () -> fired := true));
  Sim.Engine.run e ~until_us:1_000;
  Alcotest.(check bool) "not yet fired" false !fired;
  Sim.Engine.run e ~until_us:3_000;
  Alcotest.(check bool) "fired" true !fired

let test_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let timer = Sim.Engine.schedule e ~delay_us:100 (fun () -> fired := true) in
  Sim.Engine.cancel timer;
  Sim.Engine.run_until_quiescent e;
  Alcotest.(check bool) "cancelled timer silent" false !fired

let test_periodic () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let timer = Sim.Engine.periodic e ~interval_us:100 (fun () -> incr count) in
  Sim.Engine.run e ~until_us:550;
  Alcotest.(check int) "five firings" 5 !count;
  Sim.Engine.cancel timer;
  Sim.Engine.run e ~until_us:2_000;
  Alcotest.(check int) "no more after cancel" 5 !count

let test_periodic_no_drift () =
  (* A periodic callback that advances the clock (nested [run]) must not
     skew subsequent firings: re-arming happens at scheduled + interval,
     not at clock-at-return + interval. *)
  let e = Sim.Engine.create () in
  let times = ref [] in
  let timer =
    Sim.Engine.periodic e ~interval_us:100 (fun () ->
        times := Sim.Engine.now e :: !times;
        (* Burn 30us of virtual time inside the callback. *)
        Sim.Engine.run e ~until_us:(Sim.Engine.now e + 30))
  in
  Sim.Engine.run e ~until_us:350;
  Sim.Engine.cancel timer;
  Alcotest.(check (list int)) "firings anchored to cadence" [ 100; 200; 300 ]
    (List.rev !times)

let test_periodic_catches_up () =
  (* A callback that falls behind by more than one interval fires in
     quick succession until back on cadence (no firing is skipped). *)
  let e = Sim.Engine.create () in
  let times = ref [] in
  let first = ref true in
  let timer =
    Sim.Engine.periodic e ~interval_us:100 (fun () ->
        times := Sim.Engine.now e :: !times;
        if !first then begin
          first := false;
          Sim.Engine.run e ~until_us:(Sim.Engine.now e + 250)
        end)
  in
  Sim.Engine.run e ~until_us:450;
  Sim.Engine.cancel timer;
  Alcotest.(check (list int)) "late firings catch up"
    [ 100; 350; 350; 400 ] (List.rev !times)

let test_nested_scheduling () =
  let e = Sim.Engine.create () in
  let times = ref [] in
  ignore
    (Sim.Engine.schedule e ~delay_us:10 (fun () ->
         times := Sim.Engine.now e :: !times;
         ignore
           (Sim.Engine.schedule e ~delay_us:10 (fun () ->
                times := Sim.Engine.now e :: !times))));
  Sim.Engine.run_until_quiescent e;
  Alcotest.(check (list int)) "nested times" [ 10; 20 ] (List.rev !times)

let test_schedule_at_past_clamps () =
  let e = Sim.Engine.create () in
  let fired_at = ref (-1) in
  ignore
    (Sim.Engine.schedule e ~delay_us:100 (fun () ->
         ignore
           (Sim.Engine.schedule_at e ~time_us:50 (fun () ->
                fired_at := Sim.Engine.now e))));
  Sim.Engine.run_until_quiescent e;
  Alcotest.(check int) "clamped to now" 100 !fired_at

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Sim.Rng.create 7L and b = Sim.Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.next_int64 a)
      (Sim.Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let root = Sim.Rng.create 7L in
  let a = Sim.Rng.split root in
  let b = Sim.Rng.split root in
  Alcotest.(check bool) "split streams differ" true
    (Sim.Rng.next_int64 a <> Sim.Rng.next_int64 b)

let test_rng_bounds () =
  let r = Sim.Rng.create 3L in
  for _ = 1 to 1_000 do
    let x = Sim.Rng.int r 10 in
    Alcotest.(check bool) "int in range" true (x >= 0 && x < 10);
    let f = Sim.Rng.float r 2.5 in
    Alcotest.(check bool) "float in range" true (f >= 0. && f < 2.5)
  done

let test_rng_bernoulli_extremes () =
  let r = Sim.Rng.create 9L in
  Alcotest.(check bool) "p=0 never" false (Sim.Rng.bernoulli r 0.);
  Alcotest.(check bool) "p=1 always" true (Sim.Rng.bernoulli r 1.)

let test_rng_exponential_positive () =
  let r = Sim.Rng.create 11L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "exp >= 0" true (Sim.Rng.exponential r ~mean:5. >= 0.)
  done

let test_rng_shuffle_permutation () =
  let r = Sim.Rng.create 13L in
  let arr = Array.init 20 Fun.id in
  Sim.Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation"
    (Array.init 20 Fun.id) sorted

(* Splittable-stream properties: the parallel sweep runner derives
   per-instance seeds with [Rng.derive] and per-component streams with
   [Rng.split]; both must be deterministic (scheduling can never
   perturb them) and the resulting streams independent. *)

let prop_rng_split_deterministic =
  QCheck.Test.make ~name:"split is deterministic in the root seed"
    QCheck.(int64)
    (fun seed ->
      let draw () =
        let root = Sim.Rng.create seed in
        let a = Sim.Rng.split root in
        let b = Sim.Rng.split root in
        List.init 16 (fun _ -> Sim.Rng.next_int64 a)
        @ List.init 16 (fun _ -> Sim.Rng.next_int64 b)
      in
      draw () = draw ())

let prop_rng_split_streams_independent =
  QCheck.Test.make ~name:"split streams are pairwise distinct"
    QCheck.(int64)
    (fun seed ->
      let root = Sim.Rng.create seed in
      let a = Sim.Rng.split root in
      let b = Sim.Rng.split root in
      let sa = Array.init 64 (fun _ -> Sim.Rng.next_int64 a) in
      let sb = Array.init 64 (fun _ -> Sim.Rng.next_int64 b) in
      (* 64 draws agreeing anywhere near fully would mean the split
         leaked state; distinct gammas make collisions vanishingly
         rare, so demand the streams differ in most positions. *)
      let agree = ref 0 in
      Array.iteri (fun i x -> if Int64.equal x sb.(i) then incr agree) sa;
      !agree < 4)

let prop_rng_derive_pure =
  QCheck.Test.make ~name:"derive is a pure function of (seed, index)"
    QCheck.(pair int64 (int_bound 10_000))
    (fun (seed, index) ->
      Int64.equal (Sim.Rng.derive ~seed ~index) (Sim.Rng.derive ~seed ~index))

let prop_rng_derive_distinct =
  QCheck.Test.make ~name:"derive separates neighbouring indices"
    QCheck.(pair int64 (int_bound 1_000))
    (fun (seed, index) ->
      let a = Sim.Rng.derive ~seed ~index in
      let b = Sim.Rng.derive ~seed ~index:(index + 1) in
      (* The derived seeds must differ, and the generators they seed
         must immediately diverge. *)
      (not (Int64.equal a b))
      && Sim.Rng.next_int64 (Sim.Rng.create a)
         <> Sim.Rng.next_int64 (Sim.Rng.create b))

let test_rng_derive_rejects_negative () =
  Alcotest.check_raises "negative index"
    (Invalid_argument "Rng.derive: index < 0") (fun () ->
      ignore (Sim.Rng.derive ~seed:1L ~index:(-1) : int64))

(* ------------------------------------------------------------------ *)
(* Shard: ownership partition and boundary ledger *)

let shard_fixture () =
  (* 6 nodes over 3 shards: 0,1 -> shard 0; 2,3 -> shard 1; 4,5 -> 2. *)
  Sim.Shard.make ~shards:3 ~owner:(fun node -> node / 2) ~nodes:6

let test_shard_partition_shape () =
  let p = shard_fixture () in
  Alcotest.(check int) "shards" 3 (Sim.Shard.shards p);
  Alcotest.(check int) "nodes" 6 (Sim.Shard.nodes p);
  Alcotest.(check int) "owner of 3" 1 (Sim.Shard.owner_of p 3);
  Alcotest.(check (array int)) "members of shard 2" [| 4; 5 |]
    (Sim.Shard.members p 2);
  Alcotest.(check int) "engine heap of node 5 (control heap is 0)" 3
    (Sim.Shard.engine_shard p 5);
  Alcotest.(check int) "engine heaps = shards + control" 4
    (Sim.Shard.engine_shards p)

let test_shard_singleton () =
  let p = Sim.Shard.singleton ~nodes:4 in
  Alcotest.(check int) "one shard" 1 (Sim.Shard.shards p);
  Alcotest.(check (array int)) "all members" [| 0; 1; 2; 3 |]
    (Sim.Shard.members p 0)

let test_shard_make_validates () =
  Alcotest.check_raises "out-of-range owner"
    (Invalid_argument "Shard.make: owner 0 -> shard 7 out of range") (fun () ->
      ignore
        (Sim.Shard.make ~shards:3 ~owner:(fun _ -> 7) ~nodes:2
          : Sim.Shard.partition))

let test_shard_owned_roundtrip () =
  let p = shard_fixture () in
  let o = Sim.Shard.init p (fun node -> node * 10) in
  for node = 0 to 5 do
    Alcotest.(check int) "get after init" (node * 10) (Sim.Shard.get o node)
  done;
  Sim.Shard.set o 3 99;
  Alcotest.(check int) "set visible" 99 (Sim.Shard.get o 3);
  (* iter must walk nodes in ascending global order regardless of the
     shard-major storage layout — reports depend on it. *)
  let seen = ref [] in
  Sim.Shard.iter (fun node v -> seen := (node, v) :: !seen) o;
  Alcotest.(check (list (pair int int))) "ascending node order"
    [ (0, 0); (1, 10); (2, 20); (3, 99); (4, 40); (5, 50) ]
    (List.rev !seen)

let test_shard_boundary_ledger () =
  let p = shard_fixture () in
  let b = Sim.Shard.boundary p in
  let record ~src ~dst ~bytes =
    Sim.Shard.record b
      ~src_shard:(Sim.Shard.owner_of p src)
      ~dst_shard:(Sim.Shard.owner_of p dst)
      ~bytes
  in
  (* Same-shard traffic (nodes 0 -> 1) never lands in the WAN ledger. *)
  record ~src:0 ~dst:1 ~bytes:100;
  record ~src:0 ~dst:2 ~bytes:40;
  record ~src:0 ~dst:2 ~bytes:60;
  record ~src:5 ~dst:0 ~bytes:7;
  Alcotest.(check int) "cross frames" 3 (Sim.Shard.total_frames b);
  Alcotest.(check int) "cross bytes" 107 (Sim.Shard.total_bytes b);
  Alcotest.(check (list (pair (pair int int) (pair int int))))
    "crossings ordered by (src, dst), zero rows omitted"
    [ ((0, 1), (2, 100)); ((2, 0), (1, 7)) ]
    (List.map
       (fun (c : Sim.Shard.crossing) ->
         ((c.src_shard, c.dst_shard), (c.frames, c.bytes)))
       (Sim.Shard.crossings b))

(* ------------------------------------------------------------------ *)
(* Multi-heap engine: shard tags partition storage, never order *)

(* The defining property of the sharded engine: a timer's shard tag
   decides which heap stores it, but the globally-allocated sequence
   numbers keep the merged pop order bit-identical to a single heap. *)
let prop_engine_shard_tags_preserve_order =
  QCheck.Test.make ~name:"k-shard engine fires in 1-shard order"
    QCheck.(list (pair (int_bound 500) (int_bound 3)))
    (fun specs ->
      let run ~shards =
        let e = Sim.Engine.create ~shards () in
        let order = ref [] in
        List.iteri
          (fun i (delay_us, shard) ->
            ignore
              (Sim.Engine.schedule ~shard e ~delay_us (fun () ->
                   order := (i, Sim.Engine.now e) :: !order)))
          specs;
        Sim.Engine.run_until_quiescent e;
        List.rev !order
      in
      run ~shards:4 = run ~shards:1)

let test_engine_processed_by_shard () =
  let e = Sim.Engine.create ~shards:3 () in
  ignore (Sim.Engine.schedule ~shard:1 e ~delay_us:10 ignore);
  ignore (Sim.Engine.schedule ~shard:1 e ~delay_us:20 ignore);
  ignore (Sim.Engine.schedule ~shard:2 e ~delay_us:30 ignore);
  ignore (Sim.Engine.schedule e ~delay_us:40 ignore);
  Sim.Engine.run_until_quiescent e;
  Alcotest.(check int) "total" 4 (Sim.Engine.processed e);
  Alcotest.(check (list int)) "per-heap split (0 = control)" [ 1; 2; 1 ]
    (List.init (Sim.Engine.shards e) (Sim.Engine.processed_of e));
  let sum =
    List.fold_left ( + ) 0
      (List.init (Sim.Engine.shards e) (Sim.Engine.processed_of e))
  in
  Alcotest.(check int) "per-shard counts sum to total" (Sim.Engine.processed e)
    sum

let test_engine_shard_clamped () =
  (* Out-of-range tags fall back to the control heap rather than raising:
     component code may be configured with more sites than the engine
     was built for. *)
  let e = Sim.Engine.create ~shards:2 () in
  let fired = ref 0 in
  ignore (Sim.Engine.schedule ~shard:99 e ~delay_us:10 (fun () -> incr fired));
  ignore (Sim.Engine.schedule ~shard:(-1) e ~delay_us:20 (fun () -> incr fired));
  Sim.Engine.run_until_quiescent e;
  Alcotest.(check int) "both fired" 2 !fired;
  Alcotest.(check int) "landed on control heap" 2 (Sim.Engine.processed_of e 0)

(* The manual stepping API ([Window.peek_next] + [step] +
   [Window.finish_run]) must be a drop-in replacement for [run]: same
   firing order, same per-heap counts, same final clock, across a
   periodic timer that cancels itself, timers cancelled before and
   during the run, cross-heap follow-ups, same-time ties on different
   heaps and a timer past the horizon. Each firing logs the heap it was
   scheduled on, so the stepping loop can also check that
   [peek_next] names the heap the next callback actually comes from. *)
let stepping_workload e =
  let log = ref [] in
  let fire label heap () = log := (label, heap, Sim.Engine.now e) :: !log in
  let ticks = ref 0 in
  let rec tick =
    lazy
      (Sim.Engine.periodic ~shard:1 e ~interval_us:70 (fun () ->
           incr ticks;
           fire (Printf.sprintf "tick%d" !ticks) 1 ();
           (* Cross-heap follow-up: heap 1 schedules onto heap 2. *)
           ignore
             (Sim.Engine.schedule ~shard:2 e ~delay_us:15
                (fire (Printf.sprintf "echo%d" !ticks) 2));
           if !ticks = 5 then Sim.Engine.cancel (Lazy.force tick)))
  in
  ignore (Lazy.force tick);
  ignore (Sim.Engine.periodic ~shard:3 e ~interval_us:50 (fire "beat" 3));
  let victims =
    List.init 12 (fun i ->
        let heap = i mod 4 in
        let tm =
          Sim.Engine.schedule ~shard:heap e ~delay_us:(40 * (i / 2))
            (fire (Printf.sprintf "one%d" i) heap)
        in
        if i mod 3 = 0 then Sim.Engine.cancel tm;
        tm)
  in
  (* Cancelled from inside another heap's callback, before it fires. *)
  ignore
    (Sim.Engine.schedule ~shard:2 e ~delay_us:100 (fun () ->
         fire "canceller" 2 ();
         Sim.Engine.cancel (List.nth victims 11)));
  ignore (Sim.Engine.schedule ~shard:1 e ~delay_us:5_000 (fire "late" 1));
  log

let test_engine_stepping_matches_run () =
  let horizons = [ 625; 1_010 ] in
  let play ~stepped =
    let e = Sim.Engine.create ~shards:4 () in
    let log = stepping_workload e in
    List.iter
      (fun until_us ->
        if stepped then begin
          let rec loop () =
            match Sim.Engine.Window.peek_next e with
            | Some (heap, time) when time <= until_us ->
              let before = List.length !log in
              Alcotest.(check bool) "step ran" true (Sim.Engine.step e);
              (match !log with
              | (_, h, now) :: _ when List.length !log > before ->
                Alcotest.(check (pair int int)) "peek_next names the firing"
                  (heap, time) (h, now)
              | _ -> ());
              loop ()
            | Some _ | None -> ()
          in
          loop ();
          Sim.Engine.Window.finish_run e ~until_us
        end
        else Sim.Engine.run e ~until_us)
      horizons;
    ( List.rev !log,
      List.init (Sim.Engine.shards e) (Sim.Engine.processed_of e),
      Sim.Engine.now e )
  in
  let log, per_heap, now = play ~stepped:false in
  let log', per_heap', now' = play ~stepped:true in
  let label (l, _, _) = l in
  Alcotest.(check (list (triple string int int))) "firing order" log log';
  Alcotest.(check (list int)) "processed_of per heap" per_heap per_heap';
  Alcotest.(check int) "final now" now now';
  Alcotest.(check int) "clock at the last horizon" 1_010 now';
  (* The workload really exercised what it claims to. *)
  let fired l = List.exists (fun e -> label e = l) log in
  Alcotest.(check bool) "self-cancelled periodic stops" false (fired "tick6");
  Alcotest.(check bool) "cross-heap echo fires" true (fired "echo5");
  Alcotest.(check bool) "pre-cancelled one-shot never fires" false (fired "one3");
  Alcotest.(check bool) "in-run cancel wins" false (fired "one11");
  Alcotest.(check bool) "past-horizon timer pending" false (fired "late");
  Alcotest.(check bool) "every heap fired" true
    (List.for_all (fun n -> n > 0) per_heap)

(* ------------------------------------------------------------------ *)
(* Event heap *)

let prop_heap_sorted =
  QCheck.Test.make ~name:"event heap pops in time order"
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let h = Sim.Event_heap.create () in
      List.iteri (fun i time -> Sim.Event_heap.push h ~time i) times;
      let rec drain prev =
        match Sim.Event_heap.pop h with
        | None -> true
        | Some (time, _) -> time >= prev && drain time
      in
      drain min_int)

let prop_heap_stable_at_equal_times =
  QCheck.Test.make ~name:"equal timestamps pop in insertion order"
    QCheck.(int_range 1 50)
    (fun count ->
      let h = Sim.Event_heap.create () in
      for i = 0 to count - 1 do
        Sim.Event_heap.push h ~time:42 i
      done;
      let rec drain expected =
        match Sim.Event_heap.pop h with
        | None -> expected = count
        | Some (_, v) -> v = expected && drain (expected + 1)
      in
      drain 0)

(* Compaction removes filtered entries but must not disturb the pop
   order of survivors: original (time, seq) keys are preserved. *)
let prop_heap_compact_preserves_order =
  QCheck.Test.make ~name:"compact preserves survivor pop order"
    QCheck.(list (int_bound 1_000))
    (fun times ->
      let keep v = v mod 3 <> 0 in
      let h = Sim.Event_heap.create () in
      List.iteri (fun i time -> Sim.Event_heap.push h ~time i) times;
      Sim.Event_heap.compact h ~keep;
      let survivors =
        List.length (List.filteri (fun i _ -> keep i) times)
      in
      let rec drain acc =
        match Sim.Event_heap.pop h with
        | None -> List.rev acc
        | Some (time, v) -> drain ((time, v) :: acc)
      in
      let popped = drain [] in
      let rec ordered = function
        | (ta, va) :: ((tb, vb) :: _ as rest) ->
          (* Nondecreasing time; insertion order breaks ties (values
             were pushed in ascending order, so seq order = value
             order). *)
          (ta < tb || (ta = tb && va < vb)) && ordered rest
        | _ -> true
      in
      List.length popped = survivors
      && List.for_all (fun (_, v) -> keep v) popped
      && ordered popped)

(* Model check of the whole heap API against a list sorted by
   [(time, seq)]: random interleavings of [push], [push_keyed] (seqs
   past every key so far, with gaps), [pop_min] and [compact], over few
   distinct times so most comparisons fall through to the tie-break. Events are unique ids;
   after every step the min key and size must agree with the model. *)
type heap_op = Push | Push_keyed | Pop | Compact

let prop_heap_matches_sorted_model =
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, return Push); (3, return Push_keyed); (4, return Pop);
          (1, return Compact);
        ])
  in
  QCheck.Test.make ~count:300 ~name:"event heap matches sorted (time, seq) model"
    QCheck.(
      make
        Gen.(list_size (0 -- 300) (triple op (int_bound 4) (int_bound 3))))
    (fun steps ->
      let h = Sim.Event_heap.create () in
      let model = ref [] (* (time, seq, id), ascending *) in
      let next_seq = ref 0 and next_id = ref 0 in
      let insert time seq =
        let id = !next_id in
        incr next_id;
        model := List.merge compare !model [ (time, seq, id) ];
        if seq >= !next_seq then next_seq := seq + 1;
        id
      in
      let agrees () =
        Sim.Event_heap.size h = List.length !model
        &&
        match !model with
        | [] -> Sim.Event_heap.is_empty h
        | (time, seq, _) :: _ ->
          Sim.Event_heap.min_time h = time && Sim.Event_heap.min_seq h = seq
      in
      let step (op, time, k) =
        let popped_in_order =
          match op with
          | Push ->
            let id = insert time !next_seq in
            Sim.Event_heap.push h ~time id;
            true
          | Push_keyed ->
            let seq = !next_seq + k in
            Sim.Event_heap.push_keyed h ~time ~seq (insert time seq);
            true
          | Pop -> (
            match !model with
            | [] -> true
            | (_, _, id) :: rest ->
              model := rest;
              Sim.Event_heap.pop_min h = id)
          | Compact ->
            let keep id = (id + k) mod 3 <> 0 in
            Sim.Event_heap.compact h ~keep;
            model := List.filter (fun (_, _, id) -> keep id) !model;
            true
        in
        popped_in_order && agrees ()
      in
      List.for_all step steps
      && List.for_all
           (fun (_, _, id) -> Sim.Event_heap.pop_min h = id)
           !model
      && Sim.Event_heap.is_empty h)

let test_heap_hi_water () =
  let h = Sim.Event_heap.create () in
  Alcotest.(check int) "empty" 0 (Sim.Event_heap.hi_water h);
  for i = 0 to 4 do
    Sim.Event_heap.push h ~time:i i
  done;
  ignore (Sim.Event_heap.pop_min h);
  ignore (Sim.Event_heap.pop_min h);
  Sim.Event_heap.push h ~time:9 9;
  Alcotest.(check int) "peak not current size" 5 (Sim.Event_heap.hi_water h);
  for i = 10 to 13 do
    Sim.Event_heap.push h ~time:i i
  done;
  Alcotest.(check int) "new peak" 8 (Sim.Event_heap.hi_water h)

(* Engine-level purge: cancelling queued timers past the threshold must
   shrink the pending count without firing anything. *)
let test_engine_purges_cancelled () =
  let e = Sim.Engine.create ~seed:1L () in
  let fired = ref 0 in
  let timers =
    List.init 200 (fun i ->
        Sim.Engine.schedule e ~delay_us:(1_000 + i) (fun () -> incr fired))
  in
  Alcotest.(check int) "all queued" 200 (Sim.Engine.pending e);
  List.iter Sim.Engine.cancel timers;
  Alcotest.(check bool) "cancelled entries purged lazily" true
    (Sim.Engine.pending e < 200);
  Sim.Engine.run_until_quiescent e;
  Alcotest.(check int) "nothing fired" 0 !fired;
  Alcotest.(check int) "no events processed" 0 (Sim.Engine.processed e);
  Alcotest.(check int) "heap drained" 0 (Sim.Engine.pending e)

(* A periodic timer that keeps running while unrelated timers are
   cancelled in bulk must be unaffected by compaction. *)
let test_engine_compact_keeps_live_periodic () =
  let e = Sim.Engine.create ~seed:1L () in
  let ticks = ref 0 in
  let _p = Sim.Engine.periodic e ~interval_us:10 (fun () -> incr ticks) in
  let doomed =
    List.init 300 (fun i ->
        Sim.Engine.schedule e ~delay_us:(10_000 + i) (fun () ->
            Alcotest.fail "cancelled timer fired"))
  in
  List.iter Sim.Engine.cancel doomed;
  Sim.Engine.run e ~until_us:100;
  Alcotest.(check int) "periodic survived compaction" 10 !ticks

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "schedule ordering" `Quick test_schedule_ordering;
          Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "run horizon" `Quick test_run_until_horizon_only;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "periodic" `Quick test_periodic;
          Alcotest.test_case "periodic no drift" `Quick test_periodic_no_drift;
          Alcotest.test_case "periodic catches up" `Quick
            test_periodic_catches_up;
          Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
          Alcotest.test_case "schedule_at clamps" `Quick
            test_schedule_at_past_clamps;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick
            test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick
            test_rng_bernoulli_extremes;
          Alcotest.test_case "exponential positive" `Quick
            test_rng_exponential_positive;
          Alcotest.test_case "shuffle permutation" `Quick
            test_rng_shuffle_permutation;
          QCheck_alcotest.to_alcotest prop_rng_split_deterministic;
          QCheck_alcotest.to_alcotest prop_rng_split_streams_independent;
          QCheck_alcotest.to_alcotest prop_rng_derive_pure;
          QCheck_alcotest.to_alcotest prop_rng_derive_distinct;
          Alcotest.test_case "derive rejects negative index" `Quick
            test_rng_derive_rejects_negative;
        ] );
      ( "shard",
        [
          Alcotest.test_case "partition shape" `Quick test_shard_partition_shape;
          Alcotest.test_case "singleton" `Quick test_shard_singleton;
          Alcotest.test_case "make validates owners" `Quick
            test_shard_make_validates;
          Alcotest.test_case "owned get/set/iter" `Quick
            test_shard_owned_roundtrip;
          Alcotest.test_case "boundary ledger" `Quick test_shard_boundary_ledger;
        ] );
      ( "sharded_engine",
        [
          QCheck_alcotest.to_alcotest prop_engine_shard_tags_preserve_order;
          Alcotest.test_case "per-shard processed counters" `Quick
            test_engine_processed_by_shard;
          Alcotest.test_case "out-of-range tags clamp to control" `Quick
            test_engine_shard_clamped;
          Alcotest.test_case "peek_next/step/finish_run matches run" `Quick
            test_engine_stepping_matches_run;
        ] );
      ( "event_heap",
        [
          QCheck_alcotest.to_alcotest prop_heap_sorted;
          QCheck_alcotest.to_alcotest prop_heap_stable_at_equal_times;
          QCheck_alcotest.to_alcotest prop_heap_compact_preserves_order;
          QCheck_alcotest.to_alcotest prop_heap_matches_sorted_model;
          Alcotest.test_case "hi-water occupancy" `Quick test_heap_hi_water;
          Alcotest.test_case "engine purges cancelled timers" `Quick
            test_engine_purges_cancelled;
          Alcotest.test_case "compaction keeps live periodic" `Quick
            test_engine_compact_keeps_live_periodic;
        ] );
    ]
