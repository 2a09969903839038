type client_state = {
  mutable expected : int;
  buffer : (int, Update.t) Hashtbl.t;
}

type t = { clients : (Types.client, client_state) Hashtbl.t }

type state = (Types.client * int * Update.t list) list

let create () = { clients = Hashtbl.create 97 }

let client_state t c =
  match Hashtbl.find_opt t.clients c with
  | Some cs -> cs
  | None ->
    let cs = { expected = 1; buffer = Hashtbl.create 3 } in
    Hashtbl.replace t.clients c cs;
    cs

let offer t (update : Update.t) =
  let c = update.Update.client and seq = update.Update.client_seq in
  let cs = client_state t c in
  if seq < cs.expected then []
  else if seq > cs.expected then begin
    if not (Hashtbl.mem cs.buffer seq) then Hashtbl.replace cs.buffer seq update;
    []
  end
  else begin
    (* Release this update and any buffered successors. *)
    let released = ref [ update ] in
    cs.expected <- cs.expected + 1;
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt cs.buffer cs.expected with
      | Some u ->
        Hashtbl.remove cs.buffer cs.expected;
        released := u :: !released;
        cs.expected <- cs.expected + 1
      | None -> continue := false
    done;
    List.rev !released
  end

let seen t (c, seq) =
  match Hashtbl.find_opt t.clients c with
  | None -> false
  | Some cs -> seq < cs.expected || Hashtbl.mem cs.buffer seq

let expected t c =
  match Hashtbl.find_opt t.clients c with None -> 1 | Some cs -> cs.expected

let buffered_count t =
  Hashtbl.fold (fun _ cs acc -> acc + Hashtbl.length cs.buffer) t.clients 0

let state t =
  Hashtbl.fold
    (fun c cs acc ->
      let buffered =
        Hashtbl.fold (fun _ u acc -> u :: acc) cs.buffer []
        |> List.sort Update.compare_key
      in
      (c, cs.expected, buffered) :: acc)
    t.clients []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

(* Per client ["%d:%d["] (client, expected), ["%Ld;"] per buffered
   update digest, then [']'], streamed into one digest. *)
let digest_of_state st =
  let module D = Cryptosim.Digest in
  let a = D.start () in
  List.iter
    (fun (c, expected, buffered) ->
      D.add_int a c;
      D.add_byte a ':';
      D.add_int a expected;
      D.add_byte a '[';
      List.iter
        (fun u ->
          D.add_int64 a (D.to_int64 (Update.digest u));
          D.add_byte a ';')
        buffered;
      D.add_byte a ']')
    st;
  D.finish a

let digest t = digest_of_state (state t)

let install t st =
  Hashtbl.reset t.clients;
  List.iter
    (fun (c, expected, buffered) ->
      let cs = { expected; buffer = Hashtbl.create 3 } in
      List.iter
        (fun (u : Update.t) -> Hashtbl.replace cs.buffer u.Update.client_seq u)
        buffered;
      Hashtbl.replace t.clients c cs)
    st
