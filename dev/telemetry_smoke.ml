(* Telemetry smoke: run a telemetry-enabled system slice and assert the
   structural invariants of the span stream on a real system run —
   every finished span's parent exists, phase sums reconcile with the
   measured end-to-end latency, and the number of still-open spans at
   cutoff is bounded by frames genuinely in flight. Exits non-zero on
   any violation (wired into dev/check.sh).

   [telemetry_smoke.exe [seconds]] runs the E2 shape (default 10 s).
   [telemetry_smoke.exe flood] runs the E6 shape for 4 s: constrained
   flooding with the primary WAN links slowed 20x from 1.5 s, tracing
   every hop of every flooded copy. That opens ~700k spans, ten times
   the sink's 65,536-span ring, so the flood run checks that the ring
   lost only its overflow instead of losing nothing. Its open-span
   bound covers the copies in flight on the slowed links: 1,343 at
   every cutoff from 3 s to 8 s, 20 before the attack. *)

type mode = E2 of int | Flood

let usage = "telemetry_smoke.exe [seconds | flood]"

let () =
  let mode =
    if Array.length Sys.argv > 1 && Sys.argv.(1) = "flood" then Flood
    else E2 (Cli.int_arg ~default:10 ~usage Sys.argv 1)
  in
  let telemetry_on c = { c with Spire.System.telemetry = true } in
  let sys, r =
    match mode with
    | E2 seconds ->
      Spire.Scenarios.fault_free
        ~config:(telemetry_on (Spire.System.default_config ()))
        ~duration_us:(seconds * 1_000_000) ()
    | Flood ->
      Spire.Scenarios.link_degradation ~tweak:telemetry_on
        ~mode:Overlay.Net.Flood ~factor:20. ~attack_from_us:1_500_000
        ~duration_us:4_000_000 ()
  in
  let sink = Spire.System.telemetry sys in
  let spans = Telemetry.Sink.spans sink in
  let fail = ref 0 in
  let check name ok detail =
    if not ok then begin
      incr fail;
      Printf.printf "  FAIL %-28s %s\n" name detail
    end
    else Printf.printf "  ok   %-28s %s\n" name detail
  in
  let dropped = Telemetry.Sink.ring_dropped sink in
  (match mode with
  | E2 _ ->
    check "no ring drops" (dropped = 0) (Printf.sprintf "dropped=%d" dropped)
  | Flood ->
    check "ring drops only overflow"
      (List.length spans + dropped = Telemetry.Sink.closed sink)
      (Printf.sprintf "kept=%d dropped=%d closed=%d" (List.length spans)
         dropped
         (Telemetry.Sink.closed sink)));
  (* Orphans: every parent id must itself be a finished span. An update's
     root span is finished just before its children, so once the ring
     has overwritten history only the children ahead of the oldest kept
     root can have lost their parent: they are skipped. *)
  let rec from_first_root = function
    | (s : Telemetry.Span.t) :: rest
      when s.Telemetry.Span.phase <> Telemetry.Span.End_to_end ->
      from_first_root rest
    | kept -> kept
  in
  let checked = if dropped = 0 then spans else from_first_root spans in
  let by_id = Hashtbl.create 4096 in
  List.iter
    (fun (s : Telemetry.Span.t) -> Hashtbl.replace by_id s.Telemetry.Span.id s)
    spans;
  let orphans =
    List.length
      (List.filter
         (fun (s : Telemetry.Span.t) ->
           s.Telemetry.Span.parent >= 0
           && not (Hashtbl.mem by_id s.Telemetry.Span.parent))
         checked)
  in
  check "zero orphan spans" (orphans = 0)
    (Printf.sprintf "%d orphans / %d spans" orphans (List.length checked));
  let negative =
    List.length
      (List.filter
         (fun (s : Telemetry.Span.t) -> Telemetry.Span.duration s < 0)
         spans)
  in
  check "no negative durations" (negative = 0)
    (Printf.sprintf "%d negative" negative);
  (* Unclosed spans at cutoff are frames caught mid-flight by the end
     of virtual time; there can only be a handful per link, never a
     leak that grows with run length. *)
  let open_now = Telemetry.Sink.open_count sink in
  let open_bound = match mode with E2 _ -> 256 | Flood -> 4096 in
  check "open spans bounded" (open_now < open_bound)
    (Printf.sprintf "%d open at cutoff (opened=%d closed=%d)" open_now
       (Telemetry.Sink.opened sink)
       (Telemetry.Sink.closed sink));
  check "no milestone clamps"
    (Telemetry.Sink.clamped sink = 0)
    (Printf.sprintf "clamped=%d" (Telemetry.Sink.clamped sink));
  check "updates confirmed"
    (Telemetry.Sink.confirmed sink > 0
    && Telemetry.Sink.confirmed sink = r.Spire.Scenarios.confirmed)
    (Printf.sprintf "sink=%d system=%d"
       (Telemetry.Sink.confirmed sink)
       r.Spire.Scenarios.confirmed);
  let a = Telemetry.Attribution.build sink in
  check "attribution reconciled" a.Telemetry.Attribution.reconciled
    (Printf.sprintf "sum=%.1fµs Δ=%+.3fµs"
       a.Telemetry.Attribution.sum_mean_us a.Telemetry.Attribution.delta_us);
  Telemetry.Attribution.print sink;
  if !fail > 0 then begin
    Printf.printf "telemetry_smoke: %d check(s) FAILED\n" !fail;
    exit 1
  end;
  Printf.printf "telemetry_smoke: all checks green (%d spans, %d traces)\n"
    (List.length spans)
    (Telemetry.Sink.confirmed sink)
