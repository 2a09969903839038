(* Tests for the recovery library: diversity, proactive recovery
   scheduling, state transfer quorum selection. *)

module D = Recovery.Diversity
module S = Recovery.Scheduler
module ST = Recovery.State_transfer

(* ------------------------------------------------------------------ *)
(* Diversity *)

let test_diversity_initial_assignment () =
  let d = D.create ~variants:4 ~n:6 ~rng:(Sim.Rng.create 1L) in
  Alcotest.(check int) "replicas" 6 (D.replica_count d);
  for r = 0 to 5 do
    let v = D.variant_of d r in
    Alcotest.(check bool) "variant in range" true (v >= 0 && v < 4)
  done

let test_diversity_rejuvenate_changes_variant () =
  let d = D.create ~variants:8 ~n:4 ~rng:(Sim.Rng.create 2L) in
  for _ = 1 to 50 do
    let before = D.variant_of d 2 in
    let fresh = D.rejuvenate d 2 in
    Alcotest.(check bool) "different variant" true (fresh <> before);
    Alcotest.(check int) "recorded" fresh (D.variant_of d 2)
  done;
  Alcotest.(check int) "incarnation count" 50 (D.incarnation d 2)

let test_diversity_single_variant_space () =
  let d = D.create ~variants:1 ~n:3 ~rng:(Sim.Rng.create 3L) in
  Alcotest.(check int) "only variant" 0 (D.rejuvenate d 0);
  Alcotest.(check int) "max sharing = all" 3 (D.max_sharing d)

let test_diversity_replicas_running () =
  let d = D.create ~variants:2 ~n:4 ~rng:(Sim.Rng.create 4L) in
  let all =
    List.sort compare (D.replicas_running d 0 @ D.replicas_running d 1)
  in
  Alcotest.(check (list int)) "partition of replicas" [ 0; 1; 2; 3 ] all

let prop_max_sharing_bounds =
  QCheck.Test.make ~name:"max sharing within [ceil(n/v), n]"
    QCheck.(pair (int_range 1 8) (int_range 1 10))
    (fun (variants, n) ->
      let d = D.create ~variants ~n ~rng:(Sim.Rng.create 9L) in
      let m = D.max_sharing d in
      m >= (n + variants - 1) / variants && m <= n)

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let make_sched ?(n = 6) ?(max_concurrent = 1) ?(rotation = 6_000_000)
    ?(duration = 500_000) engine events =
  S.create ~engine
    ~config:
      {
        S.rotation_period_us = rotation;
        recovery_duration_us = duration;
        max_concurrent;
      }
    ~n
    ~on_begin:(fun r -> events := (`Begin, r) :: !events)
    ~on_complete:(fun r -> events := (`Complete, r) :: !events)

let test_scheduler_rotates_all_replicas () =
  let engine = Sim.Engine.create () in
  let events = ref [] in
  let sched = make_sched engine events in
  S.start sched;
  Sim.Engine.run engine ~until_us:6_500_000;
  (* One full rotation: every replica recovered exactly once, in
     descending order (see Scheduler on leader-rotation interaction). *)
  let begins =
    List.filter_map (function `Begin, r -> Some r | `Complete, _ -> None) !events
  in
  Alcotest.(check (list int)) "all replicas, staggered descending"
    [ 5; 4; 3; 2; 1; 0 ] (List.rev begins);
  Alcotest.(check int) "all completed" 6 (S.recoveries_completed sched)

let test_scheduler_respects_concurrency_cap () =
  let engine = Sim.Engine.create () in
  let events = ref [] in
  (* Recovery takes longer than the stagger slot: without the cap, two
     would overlap. *)
  let sched =
    make_sched ~max_concurrent:1 ~rotation:1_000_000 ~duration:400_000 engine
      events
  in
  S.start sched;
  let max_concurrent = ref 0 in
  ignore
    (Sim.Engine.periodic engine ~interval_us:10_000 (fun () ->
         max_concurrent := max !max_concurrent (List.length (S.in_progress sched))));
  Sim.Engine.run engine ~until_us:3_000_000;
  Alcotest.(check int) "never more than k=1 recovering" 1 !max_concurrent

let test_scheduler_trigger_now () =
  let engine = Sim.Engine.create () in
  let events = ref [] in
  let sched = make_sched engine events in
  Alcotest.(check bool) "reactive recovery accepted" true (S.trigger_now sched 3);
  Alcotest.(check bool) "duplicate rejected" false (S.trigger_now sched 3);
  Alcotest.(check bool) "cap rejected" false (S.trigger_now sched 4);
  Alcotest.(check (list int)) "in progress" [ 3 ] (S.in_progress sched);
  Sim.Engine.run engine ~until_us:600_000;
  Alcotest.(check bool) "completed" true (not (S.is_recovering sched 3))

(* ------------------------------------------------------------------ *)
(* State transfer *)

type snap = { version : int; who : string }

let snap_digest s = Cryptosim.Digest.of_string (Printf.sprintf "%d" s.version)

let source peers fetch =
  {
    ST.peers;
    fetch;
    digest_of = snap_digest;
    newer = (fun a b -> a.version > b.version);
  }

let test_state_transfer_agreeing_peers () =
  let fetch p = Some { version = 10; who = string_of_int p } in
  match ST.select ~f:1 (source [ 1; 2; 3 ] fetch) with
  | ST.Installed s -> Alcotest.(check int) "agreed version" 10 s.version
  | ST.No_quorum _ -> Alcotest.fail "expected quorum"

let test_state_transfer_byzantine_minority () =
  (* One lying peer (f=1) cannot outvote two honest ones. *)
  let fetch = function
    | 1 -> Some { version = 99; who = "liar" }
    | p -> Some { version = 10; who = string_of_int p }
  in
  match ST.select ~f:1 (source [ 1; 2; 3 ] fetch) with
  | ST.Installed s ->
    Alcotest.(check int) "honest version wins" 10 s.version;
    Alcotest.(check bool) "not the liar" true (s.who <> "liar")
  | ST.No_quorum _ -> Alcotest.fail "expected quorum"

let test_state_transfer_no_quorum () =
  (* Every peer reports something different: no f+1 agreement. *)
  let fetch p = Some { version = p; who = string_of_int p } in
  match ST.select ~f:1 (source [ 1; 2; 3 ] fetch) with
  | ST.Installed _ -> Alcotest.fail "expected no quorum"
  | ST.No_quorum best -> Alcotest.(check int) "best agreement" 1 best

let test_state_transfer_prefers_newest_quorum () =
  (* Two quorums exist (old and new state); the newest must win. *)
  let fetch = function
    | 1 | 2 -> Some { version = 10; who = "old" }
    | 3 | 4 -> Some { version = 20; who = "new" }
    | _ -> None
  in
  match ST.select ~f:1 (source [ 1; 2; 3; 4 ] fetch) with
  | ST.Installed s -> Alcotest.(check int) "newest quorum" 20 s.version
  | ST.No_quorum _ -> Alcotest.fail "expected quorum"

let test_state_transfer_unreachable_peers () =
  let fetch = function
    | 1 -> None
    | p -> Some { version = 5; who = string_of_int p }
  in
  match ST.select ~f:1 (source [ 1; 2; 3 ] fetch) with
  | ST.Installed s -> Alcotest.(check int) "works around dead peer" 5 s.version
  | ST.No_quorum _ -> Alcotest.fail "expected quorum"

(* Chunking: a snapshot blob split for the wire reassembles exactly,
   and tampering with any chunk is caught by the total digest. *)

let test_chunk_roundtrip () =
  let blob = String.init 3000 (fun i -> Char.chr (i mod 256)) in
  let chunks = ST.chunk_blob ~xfer_id:7 ~chunk_bytes:1024 blob in
  Alcotest.(check int) "ceil-div chunk count" 3 (List.length chunks);
  List.iter
    (fun c -> Alcotest.(check int) "consistent count" 3 c.ST.chunk_count)
    chunks;
  (match ST.reassemble (List.rev chunks) with
  | Ok blob' -> Alcotest.(check string) "reassembles out of order" blob blob'
  | Error e -> Alcotest.failf "reassemble failed: %s" e);
  match ST.reassemble [] with
  | Ok _ -> Alcotest.fail "empty chunk list must not reassemble"
  | Error _ -> ()

let test_chunk_empty_blob () =
  match ST.chunk_blob ~xfer_id:1 ~chunk_bytes:64 "" with
  | [ c ] ->
    Alcotest.(check int) "one empty chunk" 0 (String.length c.ST.data);
    (match ST.reassemble [ c ] with
    | Ok blob -> Alcotest.(check string) "empty roundtrip" "" blob
    | Error e -> Alcotest.failf "reassemble failed: %s" e)
  | chunks ->
    Alcotest.failf "empty blob must yield one chunk, got %d"
      (List.length chunks)

let test_chunk_tamper_detected () =
  let blob = String.init 2000 (fun i -> Char.chr ((i * 31) mod 256)) in
  let chunks = ST.chunk_blob ~xfer_id:3 ~chunk_bytes:512 blob in
  let tampered =
    List.mapi
      (fun i c ->
        if i = 1 then
          { c with ST.data = "X" ^ String.sub c.ST.data 1 (String.length c.ST.data - 1) }
        else c)
      chunks
  in
  (match ST.reassemble tampered with
  | Ok _ -> Alcotest.fail "tampered chunk data must not reassemble"
  | Error _ -> ());
  match ST.reassemble (List.tl chunks) with
  | Ok _ -> Alcotest.fail "missing chunk must not reassemble"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Chunk re-request ARQ: bounded exponential backoff with deterministic
   jitter. *)

let prop_arq_backoff =
  QCheck.Test.make ~count:500
    ~name:"arq: delay bounded by [backoff, 1.5*backoff), deterministic"
    QCheck.(
      triple (int_range 0 1000) (int_range 0 200)
        (int_range 0 (ST.default_arq.ST.max_attempts - 1)))
    (fun (xfer_id, chunk_index, attempt) ->
      let a = ST.default_arq in
      match ST.rerequest_delay_us a ~xfer_id ~chunk_index ~attempt with
      | None -> false
      | Some d ->
        let backoff = min (a.ST.base_us * (1 lsl attempt)) a.ST.cap_us in
        d >= backoff
        && d < backoff + (backoff / 2)
        && ST.rerequest_delay_us a ~xfer_id ~chunk_index ~attempt = Some d)

let test_arq_budget_exhausted () =
  let a = ST.default_arq in
  (match
     ST.rerequest_delay_us a ~xfer_id:1 ~chunk_index:0
       ~attempt:a.ST.max_attempts
   with
  | None -> ()
  | Some _ -> Alcotest.fail "attempt budget not enforced");
  (* Jitter de-synchronises concurrent transfers: with 64 distinct
     (xfer, chunk) pairs at the same attempt, delays must not all
     collide on one value. *)
  let delays =
    List.init 64 (fun i ->
        match
          ST.rerequest_delay_us a ~xfer_id:i ~chunk_index:(i * 7) ~attempt:3
        with
        | Some d -> d
        | None -> Alcotest.fail "unexpected give-up")
  in
  Alcotest.(check bool) "jitter spreads retries" true
    (List.length (List.sort_uniq compare delays) > 8)

(* Join convergence under the E6 lossy profile: a standby site is
   admitted while every inter-site replica link drops 30% of
   transmissions. The chunk-gated transfer must converge through the
   bounded-backoff ARQ (and the overlay's hop retransmissions) and the
   joiners must reach the new epoch. *)
let test_join_under_loss () =
  let cfg =
    {
      (Spire.System.default_config ()) with
      Spire.System.standby_site_sizes = [ 2 ];
      substations = 3;
      poll_interval_us = 100_000;
    }
  in
  let sys = Spire.System.create cfg in
  let net = Spire.System.net sys in
  let topo = Overlay.Net.topology net in
  let universe = Spire.System.universe_count sys in
  List.iter
    (fun link ->
      let a = link.Overlay.Topology.endpoint_a
      and b = link.Overlay.Topology.endpoint_b in
      if
        a < universe && b < universe
        && Overlay.Topology.site_of topo a <> Overlay.Topology.site_of topo b
      then Overlay.Net.set_loss_probability net a b 0.3)
    (Overlay.Topology.links topo);
  Spire.System.start sys;
  Spire.System.run sys ~duration_us:2_000_000;
  Spire.System.submit_reconfig sys
    [
      Member.Reconfig.Set_resilience { f = 1; k = 2 };
      Member.Reconfig.Add_site
        { site_id = 4; role = Member.Cert.Data_center; members = [ 6; 7 ] };
    ];
  Spire.System.run sys ~duration_us:13_000_000;
  Alcotest.(check int) "epoch 1 active" 1 (Spire.System.current_epoch sys);
  (* All eight members, joiners 6 and 7 included, run epoch 1. *)
  Alcotest.(check (list (pair int int))) "joiners caught up" [ (1, 8) ]
    (Spire.System.epoch_activity sys);
  Alcotest.(check (option string)) "no epoch violation" None
    (Spire.System.epoch_violation sys);
  Spire.System.assert_agreement sys

let () =
  Alcotest.run "recovery"
    [
      ( "diversity",
        [
          Alcotest.test_case "initial assignment" `Quick
            test_diversity_initial_assignment;
          Alcotest.test_case "rejuvenate changes variant" `Quick
            test_diversity_rejuvenate_changes_variant;
          Alcotest.test_case "single-variant space" `Quick
            test_diversity_single_variant_space;
          Alcotest.test_case "replicas running" `Quick
            test_diversity_replicas_running;
          QCheck_alcotest.to_alcotest prop_max_sharing_bounds;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "rotates all" `Quick test_scheduler_rotates_all_replicas;
          Alcotest.test_case "concurrency cap" `Quick
            test_scheduler_respects_concurrency_cap;
          Alcotest.test_case "reactive trigger" `Quick test_scheduler_trigger_now;
        ] );
      ( "state_transfer",
        [
          Alcotest.test_case "agreeing peers" `Quick
            test_state_transfer_agreeing_peers;
          Alcotest.test_case "byzantine minority" `Quick
            test_state_transfer_byzantine_minority;
          Alcotest.test_case "no quorum" `Quick test_state_transfer_no_quorum;
          Alcotest.test_case "prefers newest" `Quick
            test_state_transfer_prefers_newest_quorum;
          Alcotest.test_case "unreachable peers" `Quick
            test_state_transfer_unreachable_peers;
          Alcotest.test_case "chunking roundtrip" `Quick test_chunk_roundtrip;
          Alcotest.test_case "chunking empty blob" `Quick test_chunk_empty_blob;
          Alcotest.test_case "chunk tamper detected" `Quick
            test_chunk_tamper_detected;
          QCheck_alcotest.to_alcotest prop_arq_backoff;
          Alcotest.test_case "arq budget and jitter spread" `Quick
            test_arq_budget_exhausted;
          Alcotest.test_case "join converges under lossy links" `Slow
            test_join_under_loss;
        ] );
    ]
