(* Debug dispatcher: the chaos probes behind one executable.

     dune exec dev/debug.exe -- <case> [args]

   Each case receives the dispatcher's shifted argv (args.(0) is the
   case name, so positional indices start at 1). *)

(* Positional integer argument [i] ([default] when absent); garbage
   exits 2 with the case's usage line. *)
let int_arg ?default ~usage args i =
  Cli.int_arg ?default ~usage:("debug.exe " ^ usage) args i

module Case_chaos = struct
  (* Quick chaos-harness driver: run N seeded soaks, farmed across the
     runtime's recommended domain count (reports come back in seed
     order, so the output does not depend on it), print every report
     that is not clean (plus the first clean one for eyeballing), and
     exit 1 if any seed is dirty. Usage:
       dune exec dev/debug.exe -- chaos [count] [first_seed]   *)

  let usage = "chaos [count] [first_seed]"

  let run (args : string array) =
    let count = int_arg ~default:10 ~usage args 1 in
    let first = int_arg ~default:1 ~usage args 2 in
    let t0 = Unix.gettimeofday () in
    let seeds = List.init count (fun i -> Int64.of_int ((first + i) * 1_000_003)) in
    let reports = Chaos.Harness.soak_many ~seeds () in
    let dirty = ref 0 in
    List.iteri
      (fun i r ->
        if not (Chaos.Harness.clean r) then begin
          incr dirty;
          Format.printf "%a@." Chaos.Harness.pp_report r
        end
        else if i = 0 then Format.printf "%a@." Chaos.Harness.pp_report r
        else
          Format.printf "seed %Ld: clean (%d faults, %d confirmed, worst %.0fms)@."
            r.Chaos.Harness.seed
            (List.length r.Chaos.Harness.schedule.Attack.Schedule.events)
            r.Chaos.Harness.confirmed r.Chaos.Harness.worst_latency_ms)
      reports;
    Format.printf "%d/%d dirty, %.1fs wall@." !dirty count
      (Unix.gettimeofday () -. t0);
    if !dirty > 0 then exit 1
end

module Case_chaos2 = struct
  (* Bisect a dirty chaos schedule: rerun every subset of its events and
     report the minimal subsets that still violate an oracle.
     Usage: dune exec dev/debug.exe -- chaos2 <seed-int> *)
  let run (args : string array) =
    let seed_int = int_arg ~default:9000027 ~usage:"chaos2 [seed]" args 1 in
    let seed = Int64.of_int seed_int in
    let full = Chaos.Harness.soak ~seed () in
    Format.printf "full run:@.%a@." Chaos.Harness.pp_report full;
    let events = Array.of_list full.Chaos.Harness.schedule.Attack.Schedule.events in
    let m = Array.length events in
    let dirty_masks = ref [] in
    for mask = 1 to (1 lsl m) - 1 do
      let subset =
        List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list events)
      in
      let schedule = { full.Chaos.Harness.schedule with events = subset } in
      let r = Chaos.Harness.run ~seed ~schedule () in
      if not (Chaos.Harness.clean r) then dirty_masks := (mask, r) :: !dirty_masks
    done;
    (* Print minimal dirty subsets (no dirty strict subset). *)
    let masks = List.map fst !dirty_masks in
    List.iter
      (fun (mask, r) ->
        let strictly_within other = other land mask = other && other <> mask in
        if not (List.exists strictly_within masks) then begin
          Format.printf "@.MINIMAL dirty subset (mask %d):@." mask;
          Format.printf "%a@." Chaos.Harness.pp_report r
        end)
      !dirty_masks;
    Format.printf "%d/%d subsets dirty@." (List.length !dirty_masks)
      ((1 lsl m) - 1)
end

let cases = [ ("chaos", Case_chaos.run); ("chaos2", Case_chaos2.run) ]

let () =
  match Array.to_list Sys.argv with
  | _ :: name :: rest when List.mem_assoc name cases ->
    (List.assoc name cases) (Array.of_list (name :: rest))
  | _ ->
    Printf.eprintf "usage: debug.exe <case> [args]\navailable cases: %s\n"
      (String.concat " " (List.map fst cases));
    exit 2
