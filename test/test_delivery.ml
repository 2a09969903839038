(* Unit and property tests for the exactly-once FIFO delivery filter,
   the trace utility module, and the overlay's exact duplicate
   suppression: a flooded or redundant frame reaches its destination's
   handler once however late its other copies arrive. *)

module D = Bft.Delivery

let upd client seq =
  Bft.Update.create ~client ~client_seq:seq
    ~operation:(Printf.sprintf "%d-%d" client seq)
    ~submitted_us:0

let keys released = List.map Bft.Update.key released

(* ------------------------------------------------------------------ *)
(* Delivery *)

let test_delivery_in_order () =
  let d = D.create () in
  Alcotest.(check (list (pair int int))) "first" [ (1, 1) ] (keys (D.offer d (upd 1 1)));
  Alcotest.(check (list (pair int int))) "second" [ (1, 2) ] (keys (D.offer d (upd 1 2)));
  Alcotest.(check int) "expected advanced" 3 (D.expected d 1)

let test_delivery_duplicate_dropped () =
  let d = D.create () in
  ignore (D.offer d (upd 1 1));
  Alcotest.(check (list (pair int int))) "dup" [] (keys (D.offer d (upd 1 1)));
  Alcotest.(check bool) "seen" true (D.seen d (1, 1))

let test_delivery_out_of_order_buffered () =
  let d = D.create () in
  Alcotest.(check (list (pair int int))) "early buffered" []
    (keys (D.offer d (upd 2 3)));
  Alcotest.(check int) "buffered count" 1 (D.buffered_count d);
  Alcotest.(check bool) "buffered is seen" true (D.seen d (2, 3));
  Alcotest.(check (list (pair int int))) "seq2 buffered" []
    (keys (D.offer d (upd 2 2)));
  (* Releasing seq 1 flushes the whole buffered run. *)
  Alcotest.(check (list (pair int int))) "flush" [ (2, 1); (2, 2); (2, 3) ]
    (keys (D.offer d (upd 2 1)));
  Alcotest.(check int) "buffer drained" 0 (D.buffered_count d)

let test_delivery_clients_independent () =
  let d = D.create () in
  ignore (D.offer d (upd 1 1));
  Alcotest.(check (list (pair int int))) "client 2 unaffected" [ (2, 1) ]
    (keys (D.offer d (upd 2 1)));
  Alcotest.(check int) "client 1 expected" 2 (D.expected d 1);
  Alcotest.(check int) "client 3 fresh" 1 (D.expected d 3)

let test_delivery_state_roundtrip () =
  let a = D.create () in
  ignore (D.offer a (upd 1 1));
  ignore (D.offer a (upd 1 2));
  ignore (D.offer a (upd 2 5));
  (* buffered *)
  let b = D.create () in
  D.install b (D.state a);
  Alcotest.(check bool) "digests equal" true
    (Cryptosim.Digest.equal (D.digest a) (D.digest b));
  (* Behaviour equal after transfer. *)
  Alcotest.(check (list (pair int int))) "same release" (keys (D.offer a (upd 1 3)))
    (keys (D.offer b (upd 1 3)));
  Alcotest.(check bool) "buffered survived" true (D.seen b (2, 5))

let prop_delivery_exactly_once_any_order =
  QCheck.Test.make
    ~name:"delivery: any occurrence order releases each key exactly once, in order"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (int_bound 9))
    (fun occurrence_pattern ->
      (* Build an occurrence stream: values 0..9 map to client seqs;
         make them contiguous 1..k per client then shuffle-ish by the
         generated pattern order. *)
      let d = D.create () in
      let stream =
        List.concat_map
          (fun v ->
            let seq = (v mod 3) + 1 in
            [ upd 0 seq; upd 0 ((v mod 2) + 1) ])
          occurrence_pattern
        @ [ upd 0 1; upd 0 2; upd 0 3 ]
      in
      let released = List.concat_map (fun u -> D.offer d u) stream in
      let ks = keys released in
      (* Released keys are distinct and in increasing seq order. *)
      let rec increasing = function
        | (_, a) :: ((_, b) :: _ as rest) -> a + 1 = b && increasing rest
        | _ -> true
      in
      List.length ks = List.length (List.sort_uniq compare ks)
      && increasing ks)

(* The Buffer formulation before streaming, kept as the oracle. *)
let old_digest_of_state st =
  let buf = Buffer.create 128 in
  List.iter
    (fun (c, expected, buffered) ->
      Buffer.add_string buf (Printf.sprintf "%d:%d[" c expected);
      List.iter
        (fun u ->
          Buffer.add_string buf
            (Printf.sprintf "%Ld;" (Cryptosim.Digest.to_int64 (Bft.Update.digest u))))
        buffered;
      Buffer.add_char buf ']')
    st;
  Cryptosim.Digest.of_string (Buffer.contents buf)

let prop_digest_of_state_matches_old =
  let n = QCheck.Gen.(oneof [ int; int_range (-20) 20; oneofl [ min_int; max_int ] ]) in
  QCheck.Test.make ~count:500 ~name:"delivery: state digest = old formulation"
    QCheck.(
      make
        Gen.(
          list_size (int_bound 4)
            (triple n n
               (list_size (int_bound 4)
                  (map2 (fun c s -> upd c s) n (int_bound 1_000))))))
    (fun st ->
      Cryptosim.Digest.equal (D.digest_of_state st) (old_digest_of_state st))

let prop_delivery_state_digest_stable =
  QCheck.Test.make ~name:"delivery: digest deterministic across install"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 20) (pair (int_bound 3) (int_range 1 6)))
    (fun offers ->
      let a = D.create () in
      List.iter (fun (c, s) -> ignore (D.offer a (upd c s))) offers;
      let b = D.create () in
      D.install b (D.state a);
      Cryptosim.Digest.equal (D.digest a) (D.digest b))

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_disabled_by_default () =
  let t = Sim.Trace.create () in
  Sim.Trace.emit t ~time_us:1 ~category:"x" "dropped";
  Alcotest.(check int) "nothing retained" 0 (Sim.Trace.count t)

let test_trace_records_and_filters () =
  let t = Sim.Trace.create () in
  Sim.Trace.enable t;
  Sim.Trace.emit t ~time_us:10 ~category:"net" "a";
  Sim.Trace.emit t ~time_us:20 ~category:"bft" "b";
  Sim.Trace.emit t ~time_us:30 ~category:"net" "c";
  Alcotest.(check int) "count" 3 (Sim.Trace.count t);
  let net = Sim.Trace.by_category t "net" in
  Alcotest.(check int) "filtered" 2 (List.length net);
  Alcotest.(check string) "oldest first" "a"
    (List.hd (Sim.Trace.records t)).Sim.Trace.message;
  Sim.Trace.clear t;
  Alcotest.(check int) "cleared" 0 (Sim.Trace.count t);
  Sim.Trace.disable t;
  Sim.Trace.emit t ~time_us:40 ~category:"net" "d";
  Alcotest.(check int) "disabled again" 0 (Sim.Trace.count t)

(* ------------------------------------------------------------------ *)
(* Late copies *)

module N = Overlay.Net
module T = Overlay.Topology

(* Three nodes, fully meshed at 100 us per link, with the direct 0-2
   link slowed 20,000x (2 s). Node 0 sends 150,000 64-byte frames to
   node 2, 10 us apart, so every frame's direct copy lands ~2 s after
   the relayed copy through node 1 — after all 150,000 frames have
   been delivered, more than any bounded window of recent ids would
   remember. Returns how often node 2's handler ran. *)
let late_copy_deliveries mode =
  let topo = T.full_mesh ~nodes:3 ~latency_us:100 ~bandwidth_bps:1_000_000_000 in
  let engine = Sim.Engine.create ~seed:7L () in
  let net : int N.t = N.create engine topo () in
  N.set_latency_factor net 0 2 20_000.;
  let received = ref 0 in
  N.set_handler net 2 (fun _ -> incr received);
  let rec send i =
    if i < 150_000 then begin
      N.send net ~src:0 ~dst:2 ~size_bytes:64 ~mode i;
      ignore
        (Sim.Engine.schedule engine ~delay_us:10 (fun () -> send (i + 1))
          : Sim.Engine.timer)
    end
  in
  send 0;
  Sim.Engine.run_until_quiescent engine;
  !received

let test_late_copies_flood () =
  Alcotest.(check int) "each flooded frame delivered once" 150_000
    (late_copy_deliveries N.Flood)

let test_late_copies_redundant () =
  Alcotest.(check int) "each redundant frame delivered once" 150_000
    (late_copy_deliveries (N.Redundant 2))

(* One flooded frame on a fault-free graph of N nodes and E links: the
   source puts a copy on each of its links and every other node
   forwards its first copy on all links but the one it came in on, so
   2E - (N-1) copies cross links. N-1 of them are first arrivals; the
   other 2E - 2(N-1) are suppressed, and the frame is delivered once. *)
let check_flood_accounting name topo ~src ~dst =
  let nodes = T.node_count topo and edges = List.length (T.links topo) in
  let engine = Sim.Engine.create ~seed:7L () in
  let net : int N.t = N.create engine topo () in
  let received = ref 0 in
  N.set_handler net dst (fun _ -> incr received);
  let size_bytes = 100 in
  N.send net ~src ~dst ~size_bytes ~mode:N.Flood 0;
  Sim.Engine.run_until_quiescent engine;
  let link_bytes =
    List.fold_left (fun acc r -> acc + r.N.tx_bytes) 0 (N.link_reports net)
  in
  Alcotest.(check int) (name ^ ": copies on links")
    ((2 * edges) - (nodes - 1))
    (link_bytes / size_bytes);
  Alcotest.(check int) (name ^ ": duplicates suppressed")
    ((2 * edges) - (2 * (nodes - 1)))
    (N.stats net).N.duplicates_suppressed;
  Alcotest.(check int) (name ^ ": delivered once") 1 !received;
  Alcotest.(check int) (name ^ ": delivered stat") 1 (N.stats net).N.delivered

let test_flood_accounting_closed_form () =
  check_flood_accounting "full_mesh 5"
    (T.full_mesh ~nodes:5 ~latency_us:100 ~bandwidth_bps:1_000_000)
    ~src:0 ~dst:4;
  check_flood_accounting "wide_area_east_coast"
    (fst (T.wide_area_east_coast ()))
    ~src:0 ~dst:9

let () =
  Alcotest.run "delivery"
    [
      ( "delivery",
        [
          Alcotest.test_case "in order" `Quick test_delivery_in_order;
          Alcotest.test_case "duplicate dropped" `Quick test_delivery_duplicate_dropped;
          Alcotest.test_case "out of order buffered" `Quick
            test_delivery_out_of_order_buffered;
          Alcotest.test_case "clients independent" `Quick
            test_delivery_clients_independent;
          Alcotest.test_case "state roundtrip" `Quick test_delivery_state_roundtrip;
          QCheck_alcotest.to_alcotest prop_delivery_exactly_once_any_order;
          QCheck_alcotest.to_alcotest prop_delivery_state_digest_stable;
          QCheck_alcotest.to_alcotest prop_digest_of_state_matches_old;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled by default" `Quick test_trace_disabled_by_default;
          Alcotest.test_case "records and filters" `Quick test_trace_records_and_filters;
        ] );
      ( "late_copies",
        [
          Alcotest.test_case "flood delivers each frame once" `Quick
            test_late_copies_flood;
          Alcotest.test_case "redundant delivers each frame once" `Quick
            test_late_copies_redundant;
          Alcotest.test_case "flood accounting closed form" `Quick
            test_flood_accounting_closed_form;
        ] );
    ]
