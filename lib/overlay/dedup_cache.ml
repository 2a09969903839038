type t = {
  generation_size : int;
  mutable current : unit Int_table.t;
  mutable previous : unit Int_table.t;
}

let create ?(generation_size = 65536) () =
  if generation_size < 1 then invalid_arg "Dedup_cache.create: size < 1";
  {
    generation_size;
    current = Int_table.create 256;
    previous = Int_table.create 16;
  }

let mem t id = Int_table.mem t.current id || Int_table.mem t.previous id

(* An id already remembered — in either generation — must not be
   re-inserted: adding a [previous]-generation id to [current] would
   double-count it in [size] and retain it past its window, inflating
   memory exactly when flood-heavy traffic re-touches old ids. *)
let seen t id =
  mem t id
  || begin
       if Int_table.length t.current >= t.generation_size then begin
         t.previous <- t.current;
         t.current <- Int_table.create 256
       end;
       Int_table.replace t.current id ();
       false
     end

let add t id = ignore (seen t id : bool)
let size t = Int_table.length t.current + Int_table.length t.previous
