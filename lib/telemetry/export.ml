let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let category (phase : Span.phase) =
  match phase with
  | End_to_end | Batch_wait | Ingress | Preorder | Ordering | Execution | Reply ->
    "lifecycle"
  | Net_queue | Net_transmit | Net_arq | Net_propagate -> "net"

let sorted spans =
  List.stable_sort
    (fun (a : Span.t) (b : Span.t) ->
      match compare a.t_start b.t_start with 0 -> compare a.id b.id | c -> c)
    spans

let event_line buf (s : Span.t) =
  Printf.bprintf buf
    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":%d,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"trace\":%d,\"node\":%d,\"label\":\"%s\"}}"
    (json_escape (Span.phase_name s.phase))
    (category s.phase) s.t_start (Span.duration s) (s.node + 1)
    (if s.trace >= 0 then Span.trace_seq s.trace else 0)
    s.id s.parent s.trace s.node (json_escape s.label)

let to_string spans =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ",\n";
      event_line buf s)
    (sorted spans);
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let of_sink sink = to_string (Sink.spans sink)

let write ~path spans =
  let oc = open_out path in
  output_string oc (to_string spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Round-trip parser for this exporter's own single-line events.       *)

let span_of_line line =
  try
    Scanf.sscanf line
      "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":%d,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"trace\":%d,\"node\":%d,\"label\":%S}}"
      (fun name _cat ts dur _pid _tid id parent trace node label ->
        match Span.phase_of_name name with
        | None -> failwith ("Export.spans_of_string: unknown phase " ^ name)
        | Some phase ->
          {
            Span.id;
            parent;
            trace;
            phase;
            node;
            label;
            t_start = ts;
            t_end = ts + dur;
          })
  with Scanf.Scan_failure _ | End_of_file ->
    failwith ("Export.spans_of_string: malformed line: " ^ line)

let spans_of_string s =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         let line = String.trim line in
         let line =
           if String.length line > 0 && line.[String.length line - 1] = ',' then
             String.sub line 0 (String.length line - 1)
           else line
         in
         if String.length line >= 8 && String.sub line 0 8 = "{\"name\":" then
           Some (span_of_line line)
         else None)
