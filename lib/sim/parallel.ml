(* Shared-counter pool over a static job set.

   Memory-model notes (OCaml 5): the job counter hands each index to
   exactly one domain, so each results/errors slot is written once, and
   the final reads happen after Domain.join, which synchronises with
   domain termination. So the arrays need no atomics. *)

let default_domains () = Domain.recommended_domain_count ()
let seed_of ~root ~index = Rng.derive ~seed:root ~index

let run ?domains ~jobs f =
  if jobs < 0 then invalid_arg "Parallel.run: jobs < 0";
  let domains =
    match domains with Some d -> d | None -> default_domains ()
  in
  let domains = max 1 (min domains jobs) in
  let results = Array.make jobs None in
  let errors = Array.make jobs None in
  let next = Atomic.make 0 in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < jobs then begin
      (match f i with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some e);
      worker ()
    end
  in
  let spawned = Array.init (domains - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join spawned;
  (* Deterministic failure: re-raise the lowest-indexed job's exception
     no matter which domain hit it first. *)
  Array.iter (function Some e -> raise e | None -> ()) errors;
  Array.map
    (function Some v -> v | None -> assert false (* every job ran *))
    results

let map ?domains f items =
  run ?domains ~jobs:(Array.length items) (fun i -> f items.(i))
