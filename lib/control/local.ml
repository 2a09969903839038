type verdict = Healthy | Leader_slow | Net_slow

(* Cumulative (count, sum-of-means) pair per watched phase; windowed
   means are first differences between consecutive ticks. *)
type cursor = { mutable count : int; mutable sum_us : float }

type t = {
  replica : int;
  degrade_factor : float;
  net_growth_limit : float;
  stall_ticks : int;
  e2e_cur : cursor;
  pre_cur : cursor;
  mutable base_e2e_us : float; (* healthy EMA; 0 = not yet learned *)
  mutable base_pre_us : float;
  mutable empty : int; (* consecutive ticks with zero confirmations *)
}

let create ?(degrade_factor = 2.0) ?(net_growth_limit = 1.5) ?(stall_ticks = 2)
    ~replica () =
  if degrade_factor <= 1.0 then
    invalid_arg "Control.Local.create: degrade_factor must be > 1";
  if net_growth_limit <= 1.0 then
    invalid_arg "Control.Local.create: net_growth_limit must be > 1";
  if stall_ticks < 1 then
    invalid_arg "Control.Local.create: stall_ticks must be >= 1";
  {
    replica;
    degrade_factor;
    net_growth_limit;
    stall_ticks;
    e2e_cur = { count = 0; sum_us = 0. };
    pre_cur = { count = 0; sum_us = 0. };
    base_e2e_us = 0.;
    base_pre_us = 0.;
    empty = 0;
  }

let replica t = t.replica

(* Advance a cursor to the phase's cumulative (count, sum) and return
   the windowed (delta_count, delta_sum). Histograms only grow, so the
   deltas are non-negative. *)
let advance cur = function
  | None -> (0, 0.)
  | Some (r : Telemetry.Attribution.row) ->
    let count = r.count and sum = r.mean_us *. float_of_int r.count in
    let dc = count - cur.count and ds = sum -. cur.sum_us in
    cur.count <- count;
    cur.sum_us <- sum;
    (max 0 dc, max 0. ds)

let ema old v = if old <= 0. then v else (0.9 *. old) +. (0.1 *. v)

let observe t ~tat_alarm (a : Telemetry.Attribution.t) =
  let de2e, dse2e = advance t.e2e_cur a.Telemetry.Attribution.e2e in
  let dpre, dspre =
    advance t.pre_cur
      (Telemetry.Attribution.phase_row a Telemetry.Span.Preorder)
  in
  if de2e = 0 then begin
    (* Nothing confirmed this tick. Before any baseline that just
       means no traffic; after one, a sustained gap while pre-ordering
       continues is the signature of withheld proposals. *)
    if t.base_e2e_us > 0. then t.empty <- t.empty + 1;
    if tat_alarm then Leader_slow
    else if t.base_e2e_us > 0. && t.empty >= t.stall_ticks then Leader_slow
    else Healthy
  end
  else begin
    t.empty <- 0;
    let win_e2e = dse2e /. float_of_int de2e in
    let win_pre = if dpre > 0 then dspre /. float_of_int dpre else 0. in
    if t.base_e2e_us <= 0. then begin
      (* First confirmed window: seed the healthy baseline. *)
      t.base_e2e_us <- win_e2e;
      t.base_pre_us <- win_pre;
      Healthy
    end
    else begin
      let degraded = win_e2e > t.degrade_factor *. t.base_e2e_us in
      let net_growth =
        if t.base_pre_us > 0. then win_pre /. t.base_pre_us else 1.0
      in
      if degraded && net_growth > t.net_growth_limit then Net_slow
      else if degraded || tat_alarm then Leader_slow
      else begin
        (* Healthy tick: keep the baseline tracking slow drift. *)
        t.base_e2e_us <- ema t.base_e2e_us win_e2e;
        if win_pre > 0. then t.base_pre_us <- ema t.base_pre_us win_pre;
        Healthy
      end
    end
  end

