type phase = Turbulent | Calm

type t = {
  turbulent_bound_ms : float;
  calm_bound_ms : float;
  mutable phase : phase;
  mutable verdict : Verdict.t;
  mutable samples : int;
  mutable worst_ms : float;
  mutable worst_calm_ms : float;
}

let create ~turbulent_bound_ms ~calm_bound_ms =
  if calm_bound_ms > turbulent_bound_ms then
    invalid_arg "Sla.create: calm bound must not exceed turbulent bound";
  {
    turbulent_bound_ms;
    calm_bound_ms;
    phase = Calm;
    verdict = Verdict.pass;
    samples = 0;
    worst_ms = 0.;
    worst_calm_ms = 0.;
  }

let set_phase t phase = t.phase <- phase

let observe t ~time_us ~latency_ms =
  t.samples <- t.samples + 1;
  if latency_ms > t.worst_ms then t.worst_ms <- latency_ms;
  let bound, label =
    match t.phase with
    | Turbulent -> (t.turbulent_bound_ms, "turbulent")
    | Calm ->
      if latency_ms > t.worst_calm_ms then t.worst_calm_ms <- latency_ms;
      (t.calm_bound_ms, "calm")
  in
  if Verdict.is_pass t.verdict && latency_ms > bound then
    t.verdict <-
      Verdict.failf
        "SLA violation at t=%dus: update confirmed in %.1fms, %s-phase bound \
         is %.1fms"
        time_us latency_ms label bound

let verdict t = t.verdict
let samples t = t.samples
let worst_ms t = t.worst_ms
let worst_calm_ms t = t.worst_calm_ms
