type error =
  | Truncated of { context : string; wanted : int; available : int }
  | Bad_magic
  | Unsupported_version of int
  | Unknown_tag of { context : string; tag : int }
  | Trailing_garbage of { extra : int }
  | Auth_mismatch
  | Invalid_value of { context : string; detail : string }

let pp_error ppf = function
  | Truncated { context; wanted; available } ->
    Format.fprintf ppf "truncated at %s: wanted %d bytes, %d available" context
      wanted available
  | Bad_magic -> Format.fprintf ppf "bad magic"
  | Unsupported_version v -> Format.fprintf ppf "unsupported version %d" v
  | Unknown_tag { context; tag } ->
    Format.fprintf ppf "unknown tag 0x%02x in %s" tag context
  | Trailing_garbage { extra } ->
    Format.fprintf ppf "%d trailing bytes after message" extra
  | Auth_mismatch -> Format.fprintf ppf "authenticator mismatch"
  | Invalid_value { context; detail } ->
    Format.fprintf ppf "invalid value in %s: %s" context detail

let error_to_string e = Format.asprintf "%a" pp_error e

(* ------------------------------------------------------------------ *)
(* Writing.                                                            *)

type writer = Buffer.t

let w_u8 b v = Buffer.add_uint8 b (v land 0xff)
let w_u16 b v = Buffer.add_uint16_be b (v land 0xffff)
let w_u32 b v = Buffer.add_int32_be b (Int32.of_int (v land 0xffffffff))
let w_i64 b v = Buffer.add_int64_be b v
let w_bool b v = w_u8 b (if v then 1 else 0)
let w_digest b d = w_i64 b (Cryptosim.Digest.to_int64 d)

let w_bytes b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

let w_list b f l =
  let len = List.length l in
  if len > 0xffff then invalid_arg "Wire.Rw.w_list: list too long";
  w_u16 b len;
  List.iter (f b) l

(* ------------------------------------------------------------------ *)
(* Reading.                                                            *)

type reader = { data : string; mutable pos : int }

exception Fail of error

let fail e = raise (Fail e)

let need ctx r n =
  let available = String.length r.data - r.pos in
  if n > available then fail (Truncated { context = ctx; wanted = n; available })

let r_u8 ctx r =
  need ctx r 1;
  let v = String.get_uint8 r.data r.pos in
  r.pos <- r.pos + 1;
  v

let r_u16 ctx r =
  need ctx r 2;
  let v = String.get_uint16_be r.data r.pos in
  r.pos <- r.pos + 2;
  v

let r_u32 ctx r =
  need ctx r 4;
  let v = Int32.to_int (String.get_int32_be r.data r.pos) land 0xffffffff in
  r.pos <- r.pos + 4;
  v

let r_i64 ctx r =
  need ctx r 8;
  let v = String.get_int64_be r.data r.pos in
  r.pos <- r.pos + 8;
  v

let r_bool ctx r =
  match r_u8 ctx r with
  | 0 -> false
  | 1 -> true
  | tag -> fail (Invalid_value { context = ctx; detail = Printf.sprintf "bool tag %d" tag })

let r_digest ctx r = Cryptosim.Digest.of_int64 (r_i64 ctx r)

let take ctx r n =
  if n < 0 then fail (Invalid_value { context = ctx; detail = "negative length" });
  need ctx r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let r_bytes ctx r =
  let len = r_u32 ctx r in
  take ctx r len

let r_list ctx r f =
  let count = r_u16 ctx r in
  (* Every element consumes at least one byte, so a count beyond the
     remaining bytes is lying — reject before allocating. *)
  need ctx r count;
  let rec go i acc = if i = count then List.rev acc else go (i + 1) (f r :: acc) in
  go 0 []


let remaining r = String.length r.data - r.pos

let run_prefix s f =
  let r = { data = s; pos = 0 } in
  match f r with
  | v -> Ok (v, r.pos)
  | exception Fail e -> Error e
  | exception exn ->
    Error
      (Invalid_value
         { context = "decode"; detail = Printexc.to_string exn })

let run s f =
  match run_prefix s f with
  | Error _ as e -> e
  | Ok (v, consumed) ->
    let extra = String.length s - consumed in
    if extra = 0 then Ok v else Error (Trailing_garbage { extra })
