type t = {
  title : string;
  columns : string list;
  mutable rows : string list list; (* reversed *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- cells :: t.rows


let render ppf t =
  let rows = List.rev t.rows in
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w c -> max w (String.length c)) acc row)
      (List.map String.length t.columns)
      rows
  in
  let pad width s = s ^ String.make (width - String.length s) ' ' in
  let render_row row =
    let cells = List.map2 pad widths row in
    Format.fprintf ppf "| %s |@." (String.concat " | " cells)
  in
  let rule () =
    let segments = List.map (fun w -> String.make (w + 2) '-') widths in
    Format.fprintf ppf "+%s+@." (String.concat "+" segments)
  in
  Format.fprintf ppf "@.== %s ==@." t.title;
  rule ();
  render_row t.columns;
  rule ();
  List.iter render_row rows;
  rule ()

let print t = render Format.std_formatter t
