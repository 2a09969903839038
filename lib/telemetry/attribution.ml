type row = {
  phase : Span.phase;
  count : int;
  mean_us : float;
  p50_us : float;
  p99_us : float;
}

type t = {
  rows : row list;
  e2e : row option;
  sum_mean_us : float;
  delta_us : float;
  reconciled : bool;
}

let tolerance_us = 1.0

let lifecycle_phases =
  [
    Span.Batch_wait; Span.Ingress; Span.Preorder; Span.Ordering;
    Span.Execution; Span.Reply;
  ]

let row_of_phase sink phase =
  let h = Sink.hist sink phase in
  let count = Stats.Histogram.count h in
  if count = 0 then None
  else
    Some
      {
        phase;
        count;
        mean_us = Stats.Histogram.mean h;
        p50_us = Stats.Histogram.percentile h 50.;
        p99_us = Stats.Histogram.percentile h 99.;
      }

let build sink =
  let rows = List.filter_map (row_of_phase sink) lifecycle_phases in
  let e2e = row_of_phase sink Span.End_to_end in
  let sum_mean_us =
    List.fold_left (fun acc r -> acc +. r.mean_us) 0. rows
  in
  let delta_us =
    match e2e with Some e -> sum_mean_us -. e.mean_us | None -> 0.
  in
  { rows; e2e; sum_mean_us; delta_us; reconciled = Float.abs delta_us <= tolerance_us }

let phase_row t phase = List.find_opt (fun r -> r.phase = phase) t.rows

let f1 v = Printf.sprintf "%.1f" v

let to_table ?(title = "Latency attribution (µs, virtual)") t =
  let table =
    Stats.Table.create ~title
      ~columns:[ "phase"; "count"; "mean"; "p50"; "p99"; "share" ]
  in
  let e2e_mean = match t.e2e with Some e -> e.mean_us | None -> 0. in
  let share mean =
    if e2e_mean <= 0. then "-"
    else Printf.sprintf "%4.1f%%" (100. *. mean /. e2e_mean)
  in
  List.iter
    (fun r ->
      Stats.Table.add_row table
        [
          Span.phase_name r.phase;
          string_of_int r.count;
          f1 r.mean_us;
          f1 r.p50_us;
          f1 r.p99_us;
          share r.mean_us;
        ])
    t.rows;
  Stats.Table.add_row table
    [ "sum(phases)"; "-"; f1 t.sum_mean_us; "-"; "-"; share t.sum_mean_us ];
  (match t.e2e with
  | None -> ()
  | Some e ->
    Stats.Table.add_row table
      [
        Span.phase_name e.phase;
        string_of_int e.count;
        f1 e.mean_us;
        f1 e.p50_us;
        f1 e.p99_us;
        "100.0%";
      ]);
  table

let print ?title sink =
  let t = build sink in
  match t.e2e with
  | None ->
    Format.printf "@.(attribution: no confirmed updates traced)@."
  | Some e ->
    Stats.Table.print (to_table ?title t);
    Format.printf
      "attribution: phases sum to %.1f µs vs end-to-end %.1f µs (Δ %+.3f µs) — %s@."
      t.sum_mean_us e.mean_us t.delta_us
      (if t.reconciled then "reconciled" else "NOT RECONCILED")

let net_phases =
  [ Span.Net_queue; Span.Net_transmit; Span.Net_arq; Span.Net_propagate ]

let print_net ?(title = "Overlay per-hop spans (µs, virtual)") sink =
  let rows = List.filter_map (row_of_phase sink) net_phases in
  if rows <> [] then begin
    let table =
      Stats.Table.create ~title
        ~columns:[ "phase"; "count"; "mean"; "p50"; "p99" ]
    in
    List.iter
      (fun r ->
        Stats.Table.add_row table
          [
            Span.phase_name r.phase;
            string_of_int r.count;
            f1 r.mean_us;
            f1 r.p50_us;
            f1 r.p99_us;
          ])
      rows;
    Stats.Table.print table
  end
