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

(* Absolute outputs for one seed, in a fixed draw order: any change to
   the SplitMix step, the output mix, a draw's bit mapping or the number
   of words a draw consumes moves some later value. *)
let test_rng_golden_stream () =
  let r = Sim.Rng.create 0x5EEDL in
  Alcotest.(check int64) "next_int64" 716632666546416052L (Sim.Rng.next_int64 r);
  Alcotest.(check int) "int" 761501 (Sim.Rng.int r 1_000_000);
  Alcotest.(check (float 0.)) "float" 0x1.756f291a5acdp-2 (Sim.Rng.float r 1.);
  Alcotest.(check bool) "bool" true (Sim.Rng.bool r);
  Alcotest.(check bool) "bernoulli" true (Sim.Rng.bernoulli r 0.5);
  Alcotest.(check (float 0.)) "exponential" 0x1.fd10820751e47p+0
    (Sim.Rng.exponential r ~mean:2.);
  Alcotest.(check (float 0.)) "gaussian" 0x1.e494f570e33d9p+3
    (Sim.Rng.gaussian r ~mean:10. ~stddev:3.);
  let s = Sim.Rng.split r in
  Alcotest.(check int64) "split stream" 8142295586719582393L (Sim.Rng.next_int64 s);
  Alcotest.(check int64) "root after split" 4526273042308876071L
    (Sim.Rng.next_int64 r);
  Alcotest.(check int64) "derive" 5418772724859825651L
    (Sim.Rng.derive ~seed:0x5EEDL ~index:3)

(* Deterministic allocation guard (a GC word count, not a timing): the
   unboxed state and inlined step make the hot draws allocation-free. *)
let test_rng_draws_allocate_nothing () =
  let r = Sim.Rng.create 1L in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    acc := !acc + Sim.Rng.int r 1_000;
    if Sim.Rng.bernoulli r 0.25 then incr acc
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "draws happened" true (!acc > 0);
  Alcotest.(check (float 0.)) "minor words" 0. words

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

(* [finish_run] only moves the clock over an empty stretch: skipping a
   due event would leave it queued behind the clock. *)
let test_engine_finish_run_refuses_due_event () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule e ~delay_us:100 ignore);
  Alcotest.check_raises "due before the horizon"
    (Invalid_argument
       "Engine.Window.finish_run: an event is due before the horizon")
    (fun () -> Sim.Engine.Window.finish_run e ~until_us:100);
  Sim.Engine.Window.finish_run e ~until_us:99;
  Alcotest.(check int) "clock moved up to the event" 99 (Sim.Engine.now e)

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

(* ------------------------------------------------------------------ *)
(* Engine pins: saturation, the firing-order golden, a reference model *)

(* A delay or interval that would carry the clock past [max_int] must
   saturate at [max_int] ("never" in practice), not wrap negative and
   fire at once. *)
let test_engine_delay_saturates () =
  let e = Sim.Engine.create () in
  Sim.Engine.run e ~until_us:1_000;
  let fired_at = ref (-1) in
  ignore
    (Sim.Engine.schedule e ~delay_us:max_int (fun () ->
         fired_at := Sim.Engine.now e));
  Sim.Engine.run e ~until_us:10_000;
  Alcotest.(check int) "not fired by 10 ms" (-1) !fired_at;
  Alcotest.(check int) "still queued" 1 (Sim.Engine.pending e);
  Sim.Engine.run e ~until_us:max_int;
  Alcotest.(check int) "fires at the end of time" max_int !fired_at

let test_engine_periodic_saturates () =
  let e = Sim.Engine.create () in
  Sim.Engine.run e ~until_us:1_000;
  let fired = ref 0 in
  ignore
    (Sim.Engine.periodic e ~interval_us:(max_int - 500) (fun () -> incr fired));
  Sim.Engine.run e ~until_us:10_000;
  Alcotest.(check int) "not fired by 10 ms" 0 !fired;
  Sim.Engine.run e ~until_us:max_int;
  Alcotest.(check int) "fires once, at the end of time" 1 !fired;
  Alcotest.(check int) "not re-armed past max_int" 0 (Sim.Engine.pending e);
  (* A first firing in range whose next one would overflow. *)
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  ignore
    (Sim.Engine.periodic e ~interval_us:((max_int / 2) + 1) (fun () ->
         incr fired));
  Sim.Engine.run e ~until_us:max_int;
  Alcotest.(check int) "one firing" 1 !fired;
  Alcotest.(check int) "nothing re-armed" 0 (Sim.Engine.pending e)

let fnv_mix h x = Int64.mul (Int64.logxor h (Int64.of_int x)) 0x100000001b3L

(* Log-uniform over [0, 2^bits): each power-of-two band equally likely. *)
let log_uniform rng ~bits =
  let b = Sim.Rng.int rng (bits + 1) in
  if b = 0 then 0 else (1 lsl (b - 1)) + Sim.Rng.int rng (1 lsl (b - 1))

(* A seeded program of 20,000 timers on a 4-shard engine: delays over
   0..2^26 us (past the 2^24 us far boundary), absolute grid times that
   tie across scheduling instants, cancels before and from inside
   callbacks (one bulk cancel purges), self-cancelling periodics of 1 us to 20 s, and one
   periodic whose nested [run] leaves its re-arm behind the clock.
   Every firing folds (label, now, shard) into an FNV digest; [probe]
   holds the first firing since it was last reset. *)
let golden_program e =
  let rng = Sim.Rng.create 0x60DE2L in
  let digest = ref 0xcbf29ce484222325L and fired = ref 0 in
  let probe = ref None in
  let log label shard =
    let now = Sim.Engine.now e in
    incr fired;
    if !probe = None then probe := Some (shard, now);
    digest := fnv_mix (fnv_mix (fnv_mix !digest label) now) shard
  in
  let created = ref 0 in
  let pool = Array.make 256 None in
  let remember tm = pool.(!created land 255) <- Some tm in
  let cancel_random () =
    Option.iter Sim.Engine.cancel pool.(Sim.Rng.int rng 256)
  in
  let rec one_shot () =
    if !created < 20_000 then begin
      incr created;
      let label = !created and shard = Sim.Rng.int rng 4 in
      let fire () =
        log label shard;
        for _ = 1 to Sim.Rng.int rng 3 do
          spawn ()
        done;
        if Sim.Rng.int rng 5 < 2 then cancel_random ()
      in
      let tm =
        if Sim.Rng.int rng 8 = 0 then begin
          let grid = 1 lsl (6 * Sim.Rng.int rng 4) in
          let time_us =
            ((Sim.Engine.now e / grid) + 1 + Sim.Rng.int rng 3) * grid
          in
          Sim.Engine.schedule_at ~shard e ~time_us fire
        end
        else Sim.Engine.schedule ~shard e ~delay_us:(log_uniform rng ~bits:26) fire
      in
      remember tm;
      if Sim.Rng.int rng 10 = 0 then Sim.Engine.cancel tm
    end
  and periodic () =
    if !created < 20_000 then begin
      incr created;
      let label = !created and shard = Sim.Rng.int rng 4 in
      let interval_us = min 20_000_000 (max 1 (log_uniform rng ~bits:25)) in
      let firings = 1 + Sim.Rng.int rng 40 in
      let count = ref 0 and self = ref None in
      let tm =
        Sim.Engine.periodic ~shard e ~interval_us (fun () ->
            log label shard;
            incr count;
            if Sim.Rng.int rng 4 = 0 then spawn ();
            if !count >= firings then Option.iter Sim.Engine.cancel !self)
      in
      self := Some tm;
      remember tm
    end
  and spawn () = if Sim.Rng.int rng 50 = 0 then periodic () else one_shot () in
  (* A bulk cancel at 2 s, large enough to trigger a purge. *)
  let doomed =
    List.init 3_000 (fun i ->
        Sim.Engine.schedule ~shard:(i land 3) e
          ~delay_us:(2_000_000 + log_uniform rng ~bits:26)
          (fun () -> log (-2) (i land 3)))
  in
  ignore
    (Sim.Engine.schedule ~shard:1 e ~delay_us:2_000_000 (fun () ->
         log (-3) 1;
         List.iter Sim.Engine.cancel doomed));
  for _ = 1 to 4_000 do
    one_shot ()
  done;
  for _ = 1 to 40 do
    periodic ()
  done;
  ignore
    (Sim.Engine.schedule ~shard:2 e ~delay_us:1_234_567 (fun () ->
         log 0 2;
         let count = ref 0 and self = ref None in
         self :=
           Some
             (Sim.Engine.periodic ~shard:2 e ~interval_us:700 (fun () ->
                  log (-1) 2;
                  incr count;
                  if !count = 3 then
                    Sim.Engine.run e ~until_us:(Sim.Engine.now e + 2_500);
                  if !count = 10 then Option.iter Sim.Engine.cancel !self))));
  (fired, digest, probe)

let golden_horizons = [ 1 lsl 22; (1 lsl 24) + 12_345; (1 lsl 26) + (1 lsl 25) ]

(* Plays the golden program to each horizon through [run], or through
   [Window.peek_next]/[step]/[Window.finish_run] (checking that every
   peek names the shard and time of the firing it precedes), and
   snapshots the counters at each horizon. *)
let golden_play ~stepped =
  let e = Sim.Engine.create ~shards:4 () in
  let fired, digest, probe = golden_program e in
  let per_shard get =
    String.concat ";" (List.init (Sim.Engine.shards e) (fun s -> string_of_int (get e s)))
  in
  List.map
    (fun until_us ->
      if stepped then begin
        let rec loop () =
          match Sim.Engine.Window.peek_next e with
          | Some (shard, time) when time <= until_us ->
            let expect = (shard, max time (Sim.Engine.now e)) in
            probe := None;
            ignore (Sim.Engine.step e : bool);
            Option.iter
              (Alcotest.(check (pair int int)) "peek_next names the firing" expect)
              !probe;
            loop ()
          | Some _ | None -> ()
        in
        loop ();
        Sim.Engine.Window.finish_run e ~until_us
      end
      else Sim.Engine.run e ~until_us;
      Printf.sprintf
        "now=%d fired=%d digest=%016Lx processed=[%s] hi_water=[%s] pending=%d"
        (Sim.Engine.now e) !fired !digest
        (per_shard Sim.Engine.processed_of)
        (per_shard Sim.Engine.heap_hi_water)
        (Sim.Engine.pending e))
    golden_horizons

let golden_firing_order =
  [
    "now=4194304 fired=13960 digest=05373d2f36398c05 \
     processed=[3527;3702;3461;3270] hi_water=[1798;1719;1800;1759] \
     pending=1904";
    "now=16789561 fired=19730 digest=14c31644fd0438ff \
     processed=[5020;5204;4704;4802] hi_water=[1798;1719;1800;1759] \
     pending=1415";
    "now=100663296 fired=21536 digest=3894218c2bc91634 \
     processed=[5494;5613;5244;5185] hi_water=[1798;1719;1800;1759] \
     pending=16";
  ]

let test_engine_firing_order_golden () =
  Alcotest.(check (list string)) "run" golden_firing_order
    (golden_play ~stepped:false);
  Alcotest.(check (list string)) "peek_next/step/finish_run"
    golden_firing_order (golden_play ~stepped:true)

(* Reference model: the engine's contract as a sorted [(time, seq)]
   list. Programs mix one-shots, periodics, cancels, nested [run]s
   (which leave periodic re-arms behind the clock) and both stepping
   paths; the engine must log the same (id, now) stream and clock. *)
type model_action = A_nop | A_cancel of int | A_spawn of int | A_nested of int

type model_op =
  | P_schedule of int * int * model_action (* delay, shard, on firing *)
  | P_periodic of int * int * int * model_action (* interval, shard, firings *)
  | P_cancel of int
  | P_run of int
  | P_step_to of int

type 'h engine_api = {
  now : unit -> int;
  schedule : shard:int -> delay_us:int -> (unit -> unit) -> 'h;
  periodic : shard:int -> interval_us:int -> (unit -> unit) -> 'h;
  cancel : 'h -> unit;
  run : until_us:int -> unit;
  step_to : until_us:int -> unit;
}

let play_model_program api prog =
  let log = ref [] in
  let handles = Hashtbl.create 64 in
  let created = ref 0 in
  let add h =
    Hashtbl.replace handles !created h;
    incr created
  in
  let rec act = function
    | A_nop -> ()
    | A_cancel k ->
      if !created > 0 then api.cancel (Hashtbl.find handles (k mod !created))
    | A_spawn delay_us ->
      let id = !created in
      add (api.schedule ~shard:(id land 3) ~delay_us (fire id A_nop))
    | A_nested dt -> api.run ~until_us:(api.now () + dt)
  and fire id action () =
    log := (id, api.now ()) :: !log;
    act action
  in
  List.iter
    (function
      | P_schedule (delay_us, shard, action) ->
        add (api.schedule ~shard ~delay_us (fire !created action))
      | P_periodic (interval_us, shard, firings, action) ->
        let id = !created and n = ref 0 and self = ref None in
        let h =
          api.periodic ~shard ~interval_us (fun () ->
              incr n;
              if !n >= firings then Option.iter api.cancel !self;
              fire id action ())
        in
        self := Some h;
        add h
      | P_cancel k -> act (A_cancel k)
      | P_run dt -> api.run ~until_us:(api.now () + dt)
      | P_step_to dt -> api.step_to ~until_us:(api.now () + dt))
    prog;
  api.run ~until_us:(api.now () + (1 lsl 28));
  (List.rev !log, api.now ())

module Model = struct
  type timer = {
    callback : unit -> unit;
    interval : int;
    mutable at : int;
    mutable cancelled : bool;
  }

  type t = { mutable clock : int; mutable queue : (int * timer) list }

  (* Sequence numbers only grow, so a new entry goes after every entry
     at the same time. *)
  let insert m tm =
    let rec ins = function
      | (at, _) :: _ as l when at > tm.at -> (tm.at, tm) :: l
      | x :: rest -> x :: ins rest
      | [] -> [ (tm.at, tm) ]
    in
    m.queue <- ins m.queue

  let arm m ~at ~interval callback =
    let tm = { callback; interval; at; cancelled = false } in
    insert m tm;
    tm

  let rec run m ~until_us =
    match m.queue with
    | (at, tm) :: rest when at <= until_us ->
      m.queue <- rest;
      if at > m.clock then m.clock <- at;
      if not tm.cancelled then begin
        tm.callback ();
        if tm.interval > 0 && not tm.cancelled then begin
          tm.at <- tm.at + tm.interval;
          insert m tm
        end
      end;
      run m ~until_us
    | _ -> m.clock <- max m.clock until_us

  let api () =
    let m = { clock = 0; queue = [] } in
    {
      now = (fun () -> m.clock);
      schedule =
        (fun ~shard:_ ~delay_us f ->
          arm m ~at:(m.clock + max 0 delay_us) ~interval:0 f);
      periodic =
        (fun ~shard:_ ~interval_us f ->
          arm m ~at:(m.clock + interval_us) ~interval:interval_us f);
      cancel = (fun tm -> tm.cancelled <- true);
      run = (fun ~until_us -> run m ~until_us);
      step_to = (fun ~until_us -> run m ~until_us);
    }
end

let engine_api () =
  let e = Sim.Engine.create ~shards:4 () in
  let rec step_to ~until_us =
    match Sim.Engine.Window.peek_next e with
    | Some (_, time) when time <= until_us ->
      ignore (Sim.Engine.step e : bool);
      step_to ~until_us
    | Some _ | None -> Sim.Engine.Window.finish_run e ~until_us
  in
  {
    now = (fun () -> Sim.Engine.now e);
    schedule = (fun ~shard ~delay_us f -> Sim.Engine.schedule ~shard e ~delay_us f);
    periodic =
      (fun ~shard ~interval_us f -> Sim.Engine.periodic ~shard e ~interval_us f);
    cancel = Sim.Engine.cancel;
    run = (fun ~until_us -> Sim.Engine.run e ~until_us);
    step_to;
  }

let prop_engine_matches_model =
  let open QCheck.Gen in
  let delay =
    oneof
      [
        int_bound 70; int_bound 5_000; int_bound 300_000; int_bound (1 lsl 25);
        oneofl
          [ 0; 63; 64; 4_095; 4_096; 262_143; 262_144; (1 lsl 24) - 1;
            1 lsl 24; (1 lsl 24) + 1 ];
      ]
  in
  let action =
    frequency
      [
        (5, return A_nop);
        (2, map (fun k -> A_cancel k) nat);
        (2, map (fun d -> A_spawn d) delay);
        (1, map (fun d -> A_nested d) delay);
      ]
  in
  let interval =
    oneof [ int_range 1 80; int_range 1 300_000; int_range 1 20_000_000 ]
  in
  let op =
    frequency
      [
        (6, map3 (fun d s a -> P_schedule (d, s, a)) delay (int_bound 3) action);
        ( 2,
          map2
            (fun (i, s) (n, a) -> P_periodic (i, s, n, a))
            (pair interval (int_bound 3))
            (pair (int_range 1 4) action) );
        (2, map (fun k -> P_cancel k) nat);
        (1, map (fun d -> P_run d) delay);
        (1, map (fun d -> P_step_to d) delay);
      ]
  in
  let print_action = function
    | A_nop -> "nop"
    | A_cancel k -> Printf.sprintf "cancel %d" k
    | A_spawn d -> Printf.sprintf "spawn %d" d
    | A_nested d -> Printf.sprintf "nested %d" d
  in
  let print_op = function
    | P_schedule (d, s, a) ->
      Printf.sprintf "schedule %d @%d (%s)" d s (print_action a)
    | P_periodic (i, s, n, a) ->
      Printf.sprintf "periodic %d @%d x%d (%s)" i s n (print_action a)
    | P_cancel k -> Printf.sprintf "cancel %d" k
    | P_run d -> Printf.sprintf "run +%d" d
    | P_step_to d -> Printf.sprintf "step_to +%d" d
  in
  QCheck.Test.make ~count:300 ~name:"engine matches sorted (time, seq) model"
    (QCheck.make
       ~print:(fun p -> String.concat "; " (List.map print_op p))
       (list_size (1 -- 80) op))
    (fun prog ->
      play_model_program (engine_api ()) prog
      = play_model_program (Model.api ()) prog)

(* [Engine.create] must stay in the minor heap: a fresh engine per
   scenario instance is on every workload's set-up path. *)
let test_engine_create_minor_only () =
  let direct_major () =
    let _minor, promoted, major = Gc.counters () in
    major -. promoted
  in
  Gc.minor ();
  let before = direct_major () in
  let e = Sim.Engine.create ~shards:6 () in
  let after = direct_major () in
  ignore (Sys.opaque_identity e);
  Alcotest.(check (float 0.)) "major words allocated directly" 0.
    (after -. before)

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
          Alcotest.test_case "delay saturates at max_int" `Quick
            test_engine_delay_saturates;
          Alcotest.test_case "periodic saturates at max_int" `Quick
            test_engine_periodic_saturates;
          QCheck_alcotest.to_alcotest prop_engine_matches_model;
          Alcotest.test_case "Engine.create allocates nothing directly in the major heap" `Quick
            test_engine_create_minor_only;
          Alcotest.test_case "engine firing-order golden" `Quick
            test_engine_firing_order_golden;
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
          Alcotest.test_case "golden stream" `Quick test_rng_golden_stream;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_rng_draws_allocate_nothing;
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
          Alcotest.test_case "finish_run refuses a due event" `Quick
            test_engine_finish_run_refuses_due_event;
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
