type 'a entry = { key : int; value : 'a }
type 'a t = { mutable data : 'a entry array; mutable len : int }

let create () = { data = [||]; len = 0 }

let push t ~key value =
  let entry = { key; value } in
  if t.len >= Array.length t.data then begin
    let cap = max 32 (Array.length t.data * 2) in
    let data = Array.make cap entry in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  t.data.(t.len) <- entry;
  t.len <- t.len + 1;
  let i = ref (t.len - 1) in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if t.data.(!i).key < t.data.(parent).key then begin
      let tmp = t.data.(!i) in
      t.data.(!i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      i := parent
    end
    else continue := false
  done

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.data.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.data.(0) <- t.data.(t.len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.len && t.data.(l).key < t.data.(!smallest).key then smallest := l;
        if r < t.len && t.data.(r).key < t.data.(!smallest).key then smallest := r;
        if !smallest <> !i then begin
          let tmp = t.data.(!i) in
          t.data.(!i) <- t.data.(!smallest);
          t.data.(!smallest) <- tmp;
          i := !smallest
        end
        else continue := false
      done
    end;
    Some (top.key, top.value)
  end
