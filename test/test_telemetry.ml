(* Telemetry tests: drop-oldest ring model, span identity packing,
   sink lifecycle materialisation (clamping, missing milestones,
   pending-cap eviction), qcheck well-formedness of span trees under
   adversarial milestone orders, Chrome trace_event export goldens and
   round-trips, and an end-to-end E2 smoke asserting the attribution
   invariant on a real system run. *)

module Ring = Telemetry.Ring
module Span = Telemetry.Span
module Sink = Telemetry.Sink
module Export = Telemetry.Export
module Attribution = Telemetry.Attribution

(* ------------------------------------------------------------------ *)
(* Ring *)

let prop_ring_drop_oldest_model =
  QCheck.Test.make ~count:300 ~name:"ring: keeps exactly the newest [cap]"
    QCheck.(pair (int_range 1 16) (small_list small_int))
    (fun (cap, xs) ->
      let r = Ring.create cap in
      List.iter (Ring.push r) xs;
      let n = List.length xs in
      let d = max 0 (n - cap) in
      let expect = List.filteri (fun i _ -> i >= d) xs in
      Ring.to_list r = expect
      && Ring.length r = min n cap
      && Ring.dropped r = d
      && Ring.capacity r = cap)

let test_ring_rejects_nonpositive () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Ring.create 0 : int Ring.t))

let test_ring_iter_fold_clear () =
  let r = Ring.create 3 in
  List.iter (Ring.push r) [ 1; 2; 3; 4; 5 ];
  let seen = ref [] in
  Ring.iter (fun x -> seen := x :: !seen) r;
  Alcotest.(check (list int)) "iter oldest-first" [ 3; 4; 5 ] (List.rev !seen);
  Alcotest.(check int) "fold" 12 (Ring.fold ( + ) 0 r);
  Ring.clear r;
  Alcotest.(check int) "cleared len" 0 (Ring.length r);
  Alcotest.(check int) "cleared dropped" 0 (Ring.dropped r)

(* ------------------------------------------------------------------ *)
(* Span identity *)

let test_phase_names_roundtrip () =
  Array.iter
    (fun p ->
      match Span.phase_of_name (Span.phase_name p) with
      | Some p' ->
        Alcotest.(check int) "phase index survives name round-trip"
          (Span.phase_index p) (Span.phase_index p')
      | None -> Alcotest.failf "phase %s did not parse" (Span.phase_name p))
    Span.all_phases;
  Alcotest.(check int) "phase_count matches all_phases" Span.phase_count
    (Array.length Span.all_phases)

let prop_trace_id_roundtrip =
  QCheck.Test.make ~count:300 ~name:"trace id: (client, seq) pack round-trip"
    QCheck.(pair (int_bound 0xffff) (int_bound 0xffff_ffff))
    (fun (client, seq) ->
      let id = Span.trace_id ~client ~seq in
      id >= 0 && Span.trace_client id = client && Span.trace_seq id = seq)

(* ------------------------------------------------------------------ *)
(* Sink: disabled path *)

let span_t = Alcotest.testable Span.pp ( = )

let test_disabled_sink_is_inert () =
  let s = Sink.null in
  Alcotest.(check bool) "disabled" false (Sink.enabled s);
  let id = Sink.open_span s ~phase:Span.Net_queue ~node:0 ~label:"x" ~now:1 () in
  Alcotest.(check int) "open returns -1" (-1) id;
  Sink.close_span s ~id ~now:2;
  let trace = Span.trace_id ~client:1 ~seq:1 in
  Sink.update_submitted s ~trace ~now:1;
  Sink.update_confirmed s ~trace ~now:2;
  Alcotest.(check int) "nothing opened" 0 (Sink.opened s);
  Alcotest.(check int) "nothing closed" 0 (Sink.closed s);
  Alcotest.(check int) "nothing pending" 0 (Sink.pending_count s);
  Alcotest.(check (list span_t)) "no spans" [] (Sink.spans s)

(* ------------------------------------------------------------------ *)
(* Sink: lifecycle materialisation *)

let find_phase spans phase =
  List.find (fun (s : Span.t) -> s.Span.phase = phase) spans

let lifecycle_children =
  [
    Span.Batch_wait; Span.Ingress; Span.Preorder; Span.Ordering; Span.Execution;
    Span.Reply;
  ]

let test_lifecycle_materialisation () =
  let s = Sink.create ~enabled:true () in
  Sink.set_quorums s ~order:2 ~reply:2;
  let trace = Span.trace_id ~client:7 ~seq:3 in
  Sink.update_submitted s ~trace ~now:100;
  Sink.update_batched s ~trace ~now:120;
  Sink.update_at_origin s ~trace ~now:150;
  Sink.update_body s ~trace ~replica:0 ~now:160;
  Sink.update_body s ~trace ~replica:0 ~now:170;
  (* duplicate replica: not distinct *)
  Sink.update_body s ~trace ~replica:1 ~now:200;
  Sink.update_executed s ~trace ~replica:2 ~now:300;
  Sink.update_executed s ~trace ~replica:4 ~now:350;
  Sink.update_reply_sent s ~trace ~replica:2 ~now:355;
  (* not r*: ignored *)
  Sink.update_reply_sent s ~trace ~replica:4 ~now:360;
  Sink.update_confirmed s ~trace ~now:500;
  let spans = Sink.spans s in
  Alcotest.(check int) "seven spans" 7 (List.length spans);
  Alcotest.(check int) "confirmed" 1 (Sink.confirmed s);
  Alcotest.(check int) "complete" 0 (Sink.incomplete s);
  Alcotest.(check int) "no clamps" 0 (Sink.clamped s);
  let root = find_phase spans Span.End_to_end in
  Alcotest.(check (pair int int)) "root interval" (100, 500)
    (root.Span.t_start, root.Span.t_end);
  Alcotest.(check int) "root is a root" (-1) root.Span.parent;
  let check_child phase t_start t_end node =
    let c = find_phase spans phase in
    Alcotest.(check (pair int int))
      (Span.phase_name phase ^ " interval")
      (t_start, t_end)
      (c.Span.t_start, c.Span.t_end);
    Alcotest.(check int) (Span.phase_name phase ^ " parent") root.Span.id
      c.Span.parent;
    Alcotest.(check int) (Span.phase_name phase ^ " node") node c.Span.node;
    Alcotest.(check int) (Span.phase_name phase ^ " trace") trace c.Span.trace
  in
  check_child Span.Batch_wait 100 120 (-1);
  check_child Span.Ingress 120 150 (-1);
  check_child Span.Preorder 150 200 (-1);
  check_child Span.Ordering 200 350 (-1);
  check_child Span.Execution 350 360 4;
  check_child Span.Reply 360 500 4

(* Replica sets are bits of one native int: replica 61 is the last one
   counted apart, and a higher index is refused rather than folded into
   bit 61 (which would undercount the quorum). *)
let test_replica_bits_bounded () =
  let s = Sink.create ~enabled:true () in
  Sink.set_quorums s ~order:2 ~reply:2;
  let trace = Span.trace_id ~client:1 ~seq:1 in
  Sink.update_submitted s ~trace ~now:0;
  Sink.update_body s ~trace ~replica:61 ~now:10;
  Alcotest.check_raises "body from replica 62"
    (Invalid_argument "Telemetry.Sink: replica index above 61") (fun () ->
      Sink.update_body s ~trace ~replica:62 ~now:20);
  Alcotest.check_raises "execution at replica 62"
    (Invalid_argument "Telemetry.Sink: replica index above 61") (fun () ->
      Sink.update_executed s ~trace ~replica:62 ~now:30)

let test_missing_and_clamped_milestones () =
  let s = Sink.create ~enabled:true () in
  (* Missing everything but submit and confirm: all middle phases
     collapse to zero width, still summing to end-to-end. *)
  let t1 = Span.trace_id ~client:1 ~seq:1 in
  Sink.update_submitted s ~trace:t1 ~now:10;
  Sink.update_confirmed s ~trace:t1 ~now:40;
  Alcotest.(check int) "incomplete counted" 1 (Sink.incomplete s);
  let spans = Sink.spans s in
  let root = find_phase spans Span.End_to_end in
  let sum =
    List.fold_left
      (fun acc ph -> acc + Span.duration (find_phase spans ph))
      0 lifecycle_children
  in
  Alcotest.(check int) "children sum to e2e" (Span.duration root) sum;
  (* A milestone reported after confirmation time is clamped to it. *)
  let s = Sink.create ~enabled:true () in
  let t2 = Span.trace_id ~client:2 ~seq:2 in
  Sink.update_submitted s ~trace:t2 ~now:10;
  Sink.update_at_origin s ~trace:t2 ~now:9_999;
  Sink.update_confirmed s ~trace:t2 ~now:50;
  Alcotest.(check int) "clamp counted" 1 (Sink.clamped s);
  List.iter
    (fun (sp : Span.t) ->
      Alcotest.(check bool)
        (Span.phase_name sp.Span.phase ^ " non-negative")
        true
        (sp.Span.t_end >= sp.Span.t_start))
    (Sink.spans s)

let test_unknown_trace_confirm_is_noop () =
  let s = Sink.create ~enabled:true () in
  Sink.update_confirmed s ~trace:(Span.trace_id ~client:9 ~seq:9) ~now:100;
  Alcotest.(check int) "nothing confirmed" 0 (Sink.confirmed s);
  Alcotest.(check (list span_t)) "no spans" [] (Sink.spans s)

let test_pending_cap_eviction () =
  let s = Sink.create ~pending_cap:4 ~enabled:true () in
  for i = 0 to 9 do
    Sink.update_submitted s ~trace:(Span.trace_id ~client:i ~seq:0) ~now:i
  done;
  Alcotest.(check bool) "pending bounded" true (Sink.pending_count s <= 4);
  Alcotest.(check int) "evictions counted" 6 (Sink.abandoned s);
  (* The abandoned traces confirm as no-ops; the survivors confirm. *)
  for i = 0 to 9 do
    Sink.update_confirmed s ~trace:(Span.trace_id ~client:i ~seq:0) ~now:100
  done;
  Alcotest.(check int) "only survivors confirmed" 4 (Sink.confirmed s)

let test_open_close_cancel () =
  let s = Sink.create ~enabled:true () in
  let a = Sink.open_span s ~phase:Span.Net_transmit ~node:3 ~label:"l" ~now:10 () in
  let b = Sink.open_span s ~phase:Span.Net_queue ~node:3 ~label:"q" ~now:10 () in
  Alcotest.(check int) "two open" 2 (Sink.open_count s);
  Sink.close_span s ~id:a ~now:25;
  Sink.cancel_span s ~id:b;
  Sink.close_span s ~id:b ~now:99;
  (* cancelled: ignored *)
  Alcotest.(check int) "none open" 0 (Sink.open_count s);
  Alcotest.(check int) "one closed" 1 (Sink.closed s);
  Alcotest.(check int) "cancel counted" 1 (Sink.abandoned s);
  let sp = List.hd (Sink.spans s) in
  Alcotest.(check int) "duration" 15 (Span.duration sp);
  (* Closing before opening time never yields a negative duration. *)
  let c = Sink.open_span s ~phase:Span.Net_arq ~node:0 ~label:"r" ~now:50 () in
  Sink.close_span s ~id:c ~now:40;
  let sp = List.nth (Sink.spans s) 1 in
  Alcotest.(check int) "clamped to zero width" 0 (Span.duration sp)

(* ------------------------------------------------------------------ *)
(* qcheck: span-tree well-formedness under adversarial milestones *)

(* Feed the sink milestones in arbitrary (possibly absent, possibly
   out-of-order, possibly beyond-confirmation) positions; whatever it
   materialises must be a well-formed tree whose children tile the
   root exactly. *)
let gen_milestones =
  QCheck.make
    ~print:(fun (a, b, c, d, e, f) ->
      Printf.sprintf
        "submit=%d batched=%d origin=%d orderable=%d exec=%d reply=%d" a b c d
        e f)
    QCheck.Gen.(
      let m = int_range (-1) 2_000 in
      tup6 m m m m m m)

let well_formed_tree spans =
  let by_id = Hashtbl.create 16 in
  List.iter (fun (s : Span.t) -> Hashtbl.replace by_id s.Span.id s) spans;
  List.for_all
    (fun (s : Span.t) ->
      s.Span.t_start <= s.Span.t_end
      &&
      (s.Span.parent < 0
      ||
      match Hashtbl.find_opt by_id s.Span.parent with
      | None -> false (* orphan: parent id never materialised *)
      | Some p ->
        p.Span.t_start <= s.Span.t_start && s.Span.t_end <= p.Span.t_end))
    spans

let children_tile_root spans =
  match
    List.find_opt (fun (s : Span.t) -> s.Span.phase = Span.End_to_end) spans
  with
  | None -> List.for_all (fun (s : Span.t) -> s.Span.parent < 0) spans
  | Some root ->
    let sum =
      List.fold_left
        (fun acc (s : Span.t) ->
          if List.mem s.Span.phase lifecycle_children then
            acc + Span.duration s
          else acc)
        0 spans
    in
    sum = Span.duration root

let prop_adversarial_milestones_well_formed =
  QCheck.Test.make ~count:500
    ~name:"sink: arbitrary milestone orders yield well-formed span trees"
    gen_milestones
    (fun (submit, batched, origin, orderable, exec, reply) ->
      let s = Sink.create ~enabled:true () in
      let trace = Span.trace_id ~client:1 ~seq:42 in
      if submit >= 0 then Sink.update_submitted s ~trace ~now:submit;
      if batched >= 0 then Sink.update_batched s ~trace ~now:batched;
      if origin >= 0 then Sink.update_at_origin s ~trace ~now:origin;
      if orderable >= 0 then Sink.update_orderable s ~trace ~now:orderable;
      if exec >= 0 then Sink.update_executed s ~trace ~replica:2 ~now:exec;
      if reply >= 0 then Sink.update_reply_sent s ~trace ~replica:2 ~now:reply;
      Sink.update_confirmed s ~trace ~now:1_000;
      let spans = Sink.spans s in
      (* confirm on a never-seen trace is a no-op; any milestone call
         registers the trace and confirm then materialises exactly 7. *)
      (match spans with [] -> true | l -> List.length l = 7)
      && well_formed_tree spans
      && children_tile_root spans
      && List.for_all
           (fun (sp : Span.t) -> sp.Span.t_end <= 1_000)
           spans)

(* ------------------------------------------------------------------ *)
(* Export: golden + round-trip *)

let golden_spans =
  [
    {
      Span.id = 0;
      parent = -1;
      trace = Span.trace_id ~client:3 ~seq:7;
      phase = Span.End_to_end;
      node = -1;
      label = "";
      t_start = 100;
      t_end = 400;
    };
    {
      Span.id = 1;
      parent = 0;
      trace = Span.trace_id ~client:3 ~seq:7;
      phase = Span.Ingress;
      node = -1;
      label = "";
      t_start = 100;
      t_end = 180;
    };
    {
      Span.id = 2;
      parent = -1;
      trace = -1;
      phase = Span.Net_transmit;
      node = 4;
      label = "link 4->5";
      t_start = 120;
      t_end = 125;
    };
    {
      Span.id = 3;
      parent = -1;
      trace = -1;
      phase = Span.Net_queue;
      node = -1;
      label = "quoted \"label\"\twith\nescapes\\";
      t_start = 90;
      t_end = 90;
    };
  ]

let golden_export =
  "{\"traceEvents\":[\n\
   {\"name\":\"net.queue\",\"cat\":\"net\",\"ph\":\"X\",\"ts\":90,\"dur\":0,\"pid\":0,\"tid\":0,\"args\":{\"id\":3,\"parent\":-1,\"trace\":-1,\"node\":-1,\"label\":\"quoted \\\"label\\\"\\twith\\nescapes\\\\\"}},\n\
   {\"name\":\"end_to_end\",\"cat\":\"lifecycle\",\"ph\":\"X\",\"ts\":100,\"dur\":300,\"pid\":0,\"tid\":7,\"args\":{\"id\":0,\"parent\":-1,\"trace\":12884901895,\"node\":-1,\"label\":\"\"}},\n\
   {\"name\":\"ingress\",\"cat\":\"lifecycle\",\"ph\":\"X\",\"ts\":100,\"dur\":80,\"pid\":0,\"tid\":7,\"args\":{\"id\":1,\"parent\":0,\"trace\":12884901895,\"node\":-1,\"label\":\"\"}},\n\
   {\"name\":\"net.transmit\",\"cat\":\"net\",\"ph\":\"X\",\"ts\":120,\"dur\":5,\"pid\":5,\"tid\":0,\"args\":{\"id\":2,\"parent\":-1,\"trace\":-1,\"node\":4,\"label\":\"link 4->5\"}}\n\
   ],\"displayTimeUnit\":\"ms\"}\n"

let test_export_golden () =
  Alcotest.(check string) "byte-stable Chrome export" golden_export
    (Export.to_string golden_spans)

let sorted_spans spans =
  List.stable_sort
    (fun (a : Span.t) (b : Span.t) ->
      match compare a.Span.t_start b.Span.t_start with
      | 0 -> compare a.Span.id b.Span.id
      | c -> c)
    spans

let test_export_roundtrip_golden () =
  let back = Export.spans_of_string (Export.to_string golden_spans) in
  Alcotest.(check int) "count" (List.length golden_spans) (List.length back);
  List.iter2
    (fun (a : Span.t) (b : Span.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "span %d survives round-trip" a.Span.id)
        true (a = b))
    (sorted_spans golden_spans) back

let gen_label =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'z'; ' '; '"'; '\\'; '\n'; '\t'; '-'; '>' ])
      (int_bound 12))

let gen_span =
  QCheck.make
    ~print:(fun s -> Format.asprintf "%a" Span.pp s)
    QCheck.Gen.(
      map
        (fun ((id, parent, trace), (node, t_start, dur), label, pi) ->
          {
            Span.id;
            parent;
            trace;
            phase = Span.all_phases.(pi);
            node;
            label;
            t_start;
            t_end = t_start + dur;
          })
        (tup4
           (tup3 (int_bound 10_000) (int_range (-1) 100) (int_range (-1) 1_000))
           (tup3 (int_range (-1) 50) (int_bound 100_000) (int_bound 5_000))
           gen_label
           (int_bound (Span.phase_count - 1))))

let prop_export_roundtrip =
  QCheck.Test.make ~count:200
    ~name:"export: spans_of_string inverts to_string (sorted)"
    (QCheck.list_of_size (QCheck.Gen.int_bound 20) gen_span)
    (fun spans ->
      Export.spans_of_string (Export.to_string spans) = sorted_spans spans)

(* ------------------------------------------------------------------ *)
(* End-to-end smoke: a real E2 run with telemetry on *)

let smoke =
  lazy
    (let cfg =
       { (Spire.System.default_config ()) with Spire.System.telemetry = true }
     in
     Spire.Scenarios.fault_free ~config:cfg ~duration_us:10_000_000 ())

let smoke_sink () =
  let sys, _ = Lazy.force smoke in
  Spire.System.telemetry sys

let test_smoke_spans_well_formed () =
  let sink = smoke_sink () in
  let spans = Sink.spans sink in
  Alcotest.(check bool) "produced spans" true (List.length spans > 0);
  Alcotest.(check int) "no ring drops (valid parent check)" 0
    (Sink.ring_dropped sink);
  Alcotest.(check bool) "tree well-formed (incl. no orphans)" true
    (well_formed_tree spans);
  let ids = List.map (fun (s : Span.t) -> s.Span.id) spans in
  Alcotest.(check int) "span ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_smoke_phase_sums_reconcile () =
  let sink = smoke_sink () in
  Alcotest.(check bool) "confirmed some updates" true (Sink.confirmed sink > 0);
  Alcotest.(check int) "no milestone clamps on a clean run" 0
    (Sink.clamped sink);
  (* Per-trace: the five lifecycle children tile their root exactly. *)
  let roots = Hashtbl.create 1024 in
  List.iter
    (fun (s : Span.t) ->
      if s.Span.phase = Span.End_to_end then
        Hashtbl.replace roots s.Span.trace (Span.duration s, ref 0))
    (Sink.spans sink);
  List.iter
    (fun (s : Span.t) ->
      if List.mem s.Span.phase lifecycle_children then
        match Hashtbl.find_opt roots s.Span.trace with
        | Some (_, acc) -> acc := !acc + Span.duration s
        | None -> Alcotest.failf "child of unknown trace %d" s.Span.trace)
    (Sink.spans sink);
  Hashtbl.iter
    (fun trace (e2e, acc) ->
      if abs (e2e - !acc) > 1 then
        Alcotest.failf "trace %d: phases sum to %d but end-to-end is %d" trace
          !acc e2e)
    roots;
  (* And the aggregate view agrees. *)
  let a = Attribution.build sink in
  Alcotest.(check bool) "attribution reconciled" true
    a.Attribution.reconciled;
  Alcotest.(check bool) "mean delta within tolerance" true
    (Float.abs a.Attribution.delta_us <= Attribution.tolerance_us)

let test_smoke_export_roundtrip () =
  let sink = smoke_sink () in
  let spans = Sink.spans sink in
  let back = Export.spans_of_string (Export.of_sink sink) in
  Alcotest.(check int) "all spans exported" (List.length spans)
    (List.length back);
  Alcotest.(check bool) "round-trip equals sink contents" true
    (back = sorted_spans spans)

let test_smoke_export_deterministic () =
  (* Same seed, same config: the Chrome export is byte-identical. *)
  let run () =
    let cfg =
      { (Spire.System.default_config ()) with Spire.System.telemetry = true }
    in
    let sys, _ = Spire.Scenarios.fault_free ~config:cfg ~duration_us:2_000_000 () in
    Export.of_sink (Spire.System.telemetry sys)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "exports byte-identical across runs" true
    (String.equal a b);
  Alcotest.(check bool) "export non-trivial" true (String.length a > 1_000)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "telemetry"
    [
      ( "ring",
        [
          QCheck_alcotest.to_alcotest prop_ring_drop_oldest_model;
          Alcotest.test_case "rejects non-positive capacity" `Quick
            test_ring_rejects_nonpositive;
          Alcotest.test_case "iter/fold/clear" `Quick test_ring_iter_fold_clear;
        ] );
      ( "span",
        [
          Alcotest.test_case "phase names round-trip" `Quick
            test_phase_names_roundtrip;
          QCheck_alcotest.to_alcotest prop_trace_id_roundtrip;
        ] );
      ( "sink",
        [
          Alcotest.test_case "disabled sink is inert" `Quick
            test_disabled_sink_is_inert;
          Alcotest.test_case "lifecycle materialisation" `Quick
            test_lifecycle_materialisation;
          Alcotest.test_case "replica bits bounded" `Quick
            test_replica_bits_bounded;
          Alcotest.test_case "missing and clamped milestones" `Quick
            test_missing_and_clamped_milestones;
          Alcotest.test_case "confirm without milestones is a no-op" `Quick
            test_unknown_trace_confirm_is_noop;
          Alcotest.test_case "pending cap evicts oldest" `Quick
            test_pending_cap_eviction;
          Alcotest.test_case "open/close/cancel spans" `Quick
            test_open_close_cancel;
          QCheck_alcotest.to_alcotest prop_adversarial_milestones_well_formed;
        ] );
      ( "export",
        [
          Alcotest.test_case "golden Chrome trace_event JSON" `Quick
            test_export_golden;
          Alcotest.test_case "golden round-trip" `Quick
            test_export_roundtrip_golden;
          QCheck_alcotest.to_alcotest prop_export_roundtrip;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "E2 span tree well-formed" `Slow
            test_smoke_spans_well_formed;
          Alcotest.test_case "E2 phase sums reconcile" `Slow
            test_smoke_phase_sums_reconcile;
          Alcotest.test_case "E2 export round-trips" `Slow
            test_smoke_export_roundtrip;
          Alcotest.test_case "E2 export deterministic" `Slow
            test_smoke_export_deterministic;
        ] );
    ]
