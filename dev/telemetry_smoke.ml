(* Telemetry smoke: run a telemetry-enabled E2 slice and assert the
   structural invariants of the span stream on a real system run —
   every finished span's parent exists, phase sums reconcile with the
   measured end-to-end latency, and the number of still-open spans at
   cutoff is bounded by frames genuinely in flight. Exits non-zero on
   any violation (wired into dev/check.sh). *)

let () =
  let duration_us =
    Cli.int_arg ~default:10 ~usage:"telemetry_smoke.exe [seconds]" Sys.argv 1
    * 1_000_000
  in
  let cfg =
    { (Spire.System.default_config ()) with Spire.System.telemetry = true }
  in
  let sys, r = Spire.Scenarios.fault_free ~config:cfg ~duration_us () in
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
  (* Orphans: every parent id must itself be a finished span. Valid
     only while the ring has not overwritten history. *)
  check "no ring drops"
    (Telemetry.Sink.ring_dropped sink = 0)
    (Printf.sprintf "dropped=%d" (Telemetry.Sink.ring_dropped sink));
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
         spans)
  in
  check "zero orphan spans" (orphans = 0)
    (Printf.sprintf "%d orphans / %d spans" orphans (List.length spans));
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
  check "open spans bounded" (open_now < 256)
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
