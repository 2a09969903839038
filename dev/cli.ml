(* Argument validation shared by the dev executables: a malformed or
   missing number exits 2 with the program's usage line, like the bench
   env knobs, instead of raising an uncaught [Failure] or silently
   falling back to a default. *)

let usage_exit ~usage why =
  Printf.eprintf "%s\nusage: %s\n" why usage;
  exit 2

let parse ~usage ~what conv s =
  match conv s with
  | Some v -> v
  | None -> usage_exit ~usage (Printf.sprintf "not %s: %S" what s)

(* Positional argument [i] of [args] ([default] when absent). *)
let arg ?default ~usage ~what conv args i =
  if i < Array.length args then parse ~usage ~what conv args.(i)
  else
    match default with
    | Some v -> v
    | None -> usage_exit ~usage "missing argument"

let int_arg ?default ~usage args i =
  arg ?default ~usage ~what:"an integer" int_of_string_opt args i

let int64_arg ?default ~usage args i =
  arg ?default ~usage ~what:"an integer" Int64.of_string_opt args i
