(* Tests for the simulated cryptography layer. *)

module D = Cryptosim.Digest
module K = Cryptosim.Keyring
module A = Cryptosim.Auth
module T = Cryptosim.Threshold

let test_digest_deterministic () =
  Alcotest.(check bool) "same input same digest" true
    (D.equal (D.of_string "hello") (D.of_string "hello"));
  Alcotest.(check bool) "different input different digest" false
    (D.equal (D.of_string "hello") (D.of_string "world"))

let test_digest_combine_order_sensitive () =
  let a = D.of_string "a" and b = D.of_string "b" in
  Alcotest.(check bool) "combine not commutative" false
    (D.equal (D.combine a b) (D.combine b a))

let test_digest_hex () =
  Alcotest.(check int) "hex length" 16 (String.length (D.to_hex (D.of_string "x")))

let test_sign_verify () =
  let kr = K.create ~seed:1L ~size:4 in
  let d = D.of_string "message" in
  let s = A.sign (K.secret kr 2) d in
  Alcotest.(check bool) "verifies" true (A.verify kr ~signer:2 ~digest:d s);
  Alcotest.(check int) "signer recorded" 2 (A.signature_signer s)

let test_verify_rejects_wrong_signer () =
  let kr = K.create ~seed:1L ~size:4 in
  let d = D.of_string "message" in
  let s = A.sign (K.secret kr 2) d in
  Alcotest.(check bool) "wrong signer" false (A.verify kr ~signer:3 ~digest:d s)

let test_verify_rejects_wrong_digest () =
  let kr = K.create ~seed:1L ~size:4 in
  let s = A.sign (K.secret kr 1) (D.of_string "m1") in
  Alcotest.(check bool) "wrong digest" false
    (A.verify kr ~signer:1 ~digest:(D.of_string "m2") s)

let test_forge_rejected () =
  let kr = K.create ~seed:1L ~size:4 in
  let d = D.of_string "command" in
  let s = A.forge ~claimed_signer:0 ~digest:d in
  Alcotest.(check bool) "forgery rejected" false
    (A.verify kr ~signer:0 ~digest:d s)

let test_rotate_invalidates_old_signatures () =
  let kr = K.create ~seed:1L ~size:4 in
  let d = D.of_string "m" in
  let old = A.sign (K.secret kr 0) d in
  let fresh_secret = K.rotate kr 0 in
  Alcotest.(check bool) "old signature dead" false
    (A.verify kr ~signer:0 ~digest:d old);
  let s = A.sign fresh_secret d in
  Alcotest.(check bool) "new signature lives" true
    (A.verify kr ~signer:0 ~digest:d s)

let test_mac_roundtrip () =
  let kr = K.create ~seed:2L ~size:4 in
  let d = D.of_string "pairwise" in
  let m = A.mac (K.secret kr 1) ~peer:3 d in
  Alcotest.(check bool) "mac verifies" true
    (A.verify_mac kr ~sender:1 ~receiver:3 ~digest:d m);
  Alcotest.(check bool) "wrong receiver" false
    (A.verify_mac kr ~sender:1 ~receiver:2 ~digest:d m);
  Alcotest.(check bool) "wrong sender" false
    (A.verify_mac kr ~sender:2 ~receiver:3 ~digest:d m)

(* ------------------------------------------------------------------ *)
(* Threshold signatures *)

let group () =
  T.create_group ~seed:5L ~members:[ 0; 1; 2; 3; 4; 5 ] ~threshold:4

let test_threshold_combine_success () =
  let g = group () in
  let d = D.of_string "state-update" in
  let shares = List.map (fun m -> T.sign_share g ~member:m d) [ 0; 1; 2; 3 ] in
  match T.combine g ~digest:d shares with
  | None -> Alcotest.fail "combine should succeed with threshold shares"
  | Some c -> Alcotest.(check bool) "verifies" true (T.verify g ~digest:d c)

let test_threshold_too_few_shares () =
  let g = group () in
  let d = D.of_string "state-update" in
  let shares = List.map (fun m -> T.sign_share g ~member:m d) [ 0; 1; 2 ] in
  Alcotest.(check bool) "too few" true (T.combine g ~digest:d shares = None)

let test_threshold_duplicate_members_dont_count () =
  let g = group () in
  let d = D.of_string "x" in
  let s0 = T.sign_share g ~member:0 d in
  let shares = [ s0; s0; s0; T.sign_share g ~member:1 d ] in
  Alcotest.(check bool) "duplicates collapse" true
    (T.combine g ~digest:d shares = None)

let test_threshold_corrupt_share_rejected () =
  let g = group () in
  let d = D.of_string "y" in
  let good = List.map (fun m -> T.sign_share g ~member:m d) [ 0; 1; 2 ] in
  let bad = T.corrupt_share (T.sign_share g ~member:3 d) in
  Alcotest.(check bool) "corrupt share invalid" false (T.verify_share g ~digest:d bad);
  Alcotest.(check bool) "combine fails with corrupt 4th" true
    (T.combine g ~digest:d (bad :: good) = None)

let test_threshold_wrong_digest_shares () =
  let g = group () in
  let d1 = D.of_string "d1" and d2 = D.of_string "d2" in
  let shares =
    List.map (fun m -> T.sign_share g ~member:m d1) [ 0; 1; 2 ]
    @ [ T.sign_share g ~member:3 d2 ]
  in
  Alcotest.(check bool) "mixed digests don't combine" true
    (T.combine g ~digest:d1 shares = None)

let test_threshold_nonmember_rejected () =
  let g = group () in
  Alcotest.check_raises "non-member"
    (Invalid_argument "Threshold.sign_share: not a member") (fun () ->
      ignore (T.sign_share g ~member:17 (D.of_string "z")))

let prop_sign_verify_roundtrip =
  QCheck.Test.make ~name:"sign/verify roundtrip for any message"
    QCheck.(pair small_string (int_bound 3))
    (fun (msg, signer) ->
      let kr = K.create ~seed:99L ~size:4 in
      let d = D.of_string msg in
      A.verify kr ~signer ~digest:d (A.sign (K.secret kr signer) d))

let prop_threshold_any_quorum_combines =
  QCheck.Test.make ~name:"any 4-of-6 subset combines"
    QCheck.(list_of_size (QCheck.Gen.return 6) bool)
    (fun mask ->
      let g = group () in
      let d = D.of_string "q" in
      let members = List.filteri (fun i _ -> List.nth mask i) [ 0; 1; 2; 3; 4; 5 ] in
      let shares = List.map (fun m -> T.sign_share g ~member:m d) members in
      let combined = T.combine g ~digest:d shares in
      if List.length members >= 4 then combined <> None else combined = None)

(* Reference FNV-1a 64-bit, written directly over Int64 as the digest
   module originally was. The shipping implementation tracks the hash
   as two unboxed 32-bit limbs; it must agree bit-for-bit, or every
   recorded golden run would silently shift. *)
let reference_fnv s =
  let fnv_offset = 0xcbf29ce484222325L in
  let fnv_prime = 0x100000001b3L in
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    s;
  !h

let prop_digest_matches_reference_fnv =
  QCheck.Test.make ~count:1000 ~name:"limb digest = reference Int64 FNV-1a"
    QCheck.(string_gen QCheck.Gen.char)
    (fun s -> Int64.equal (D.to_int64 (D.of_string s)) (reference_fnv s))

let prop_digest_combine_matches_reference =
  QCheck.Test.make ~count:1000 ~name:"combine = FNV over 16 big-endian bytes"
    QCheck.(pair (string_gen QCheck.Gen.char) (string_gen QCheck.Gen.char))
    (fun (sa, sb) ->
      let a = D.of_string sa and b = D.of_string sb in
      let buf = Bytes.create 16 in
      Bytes.set_int64_be buf 0 (D.to_int64 a);
      Bytes.set_int64_be buf 8 (D.to_int64 b);
      Int64.equal
        (D.to_int64 (D.combine a b))
        (reference_fnv (Bytes.to_string buf)))

(* ------------------------------------------------------------------ *)
(* Streaming accumulator and the tags built on it *)

let int_specials = [ min_int; max_int; 0; 9; -9; 10; -10; 1; -1; 99; -100 ]

let int64_specials =
  let e18 = 1_000_000_000_000_000_000L in
  [
    Int64.min_int; Int64.max_int; 0L; 9L; -9L; 10L; -10L; e18; Int64.neg e18;
    Int64.pred e18; Int64.succ e18; Int64.neg (Int64.succ e18);
    Int64.of_int min_int; Int64.of_int max_int;
  ]

(* Digest of [prefix] followed by the value's bytes, fed through
   [add]; the prefix checks that the value continues a running state. *)
let streamed prefix add v =
  let a = D.start () in
  D.add_string a prefix;
  add a v;
  D.finish a

let add_int_matches n =
  D.equal (streamed "k:" D.add_int n) (D.of_string ("k:" ^ string_of_int n))

let add_int64_matches v =
  D.equal (streamed "k:" D.add_int64 v) (D.of_string ("k:" ^ Int64.to_string v))

let test_stream_specials () =
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "add_int %d" n) true (add_int_matches n))
    int_specials;
  List.iter
    (fun v ->
      Alcotest.(check bool) (Printf.sprintf "add_int64 %Ld" v) true
        (add_int64_matches v))
    int64_specials;
  let a = D.start () in
  D.add_byte a 'x';
  D.add_string a "";
  D.add_byte a '\255';
  Alcotest.(check bool) "add_byte" true (D.equal (D.finish a) (D.of_string "x\255"))

let prop_add_int_is_string_of_int =
  QCheck.Test.make ~count:2_000 ~name:"add_int = bytes of string_of_int"
    QCheck.(oneof [ int; oneofl int_specials; int_range (-1000) 1000 ])
    add_int_matches

let prop_add_int64_is_to_string =
  QCheck.Test.make ~count:2_000 ~name:"add_int64 = bytes of Int64.to_string"
    QCheck.(oneof [ int64; oneofl int64_specials; map Int64.of_int int ])
    add_int64_matches

(* The tag formulations before they were streamed, kept as oracles. *)
let old_key seed index epoch =
  D.to_int64 (D.of_string (Printf.sprintf "key:%Ld:%d:%d" seed index epoch))

let old_sig material signer d =
  D.of_string (Printf.sprintf "sig:%Ld:%d:%Ld" material signer (D.to_int64 d))

let old_forged signer d =
  D.of_string (Printf.sprintf "forged:%d:%Ld" signer (D.to_int64 d))

let old_mac material sender peer d =
  D.of_string
    (Printf.sprintf "mac:%Ld:%d:%d:%Ld" material sender peer (D.to_int64 d))

let old_group_id seed members threshold =
  D.to_int64
    (D.of_string
       (Printf.sprintf "group:%Ld:%s:%d" seed
          (String.concat "," (List.map string_of_int members))
          threshold))

let old_share_tag gid member d =
  D.of_string
    ("share:" ^ Int64.to_string gid ^ ":" ^ string_of_int member ^ ":"
   ^ Int64.to_string (D.to_int64 d))

let old_combined_tag gid d =
  D.of_string ("combined:" ^ Int64.to_string gid ^ ":" ^ Int64.to_string (D.to_int64 d))

let prop_auth_tags_match_strings =
  QCheck.Test.make ~count:500 ~name:"keyring/auth tags = their strings"
    QCheck.(quad int64 (int_bound 5) (int_bound 5) small_string)
    (fun (seed, signer, peer, msg) ->
      let kr = K.create ~seed ~size:6 in
      let d = D.of_string msg in
      let material = K.material_of kr signer in
      let keys_ok =
        List.for_all (fun i -> Int64.equal (K.material_of kr i) (old_key seed i 0))
          [ 0; 1; 2; 3; 4; 5 ]
      in
      ignore (K.rotate kr peer : K.secret);
      let rotated_ok = Int64.equal (K.material_of kr peer) (old_key seed peer 1) in
      let material = if signer = peer then K.material_of kr signer else material in
      let secret = K.secret kr signer in
      keys_ok && rotated_ok
      && D.equal (A.signature_tag (A.sign secret d)) (old_sig material signer d)
      && D.equal
           (A.signature_tag (A.forge ~claimed_signer:signer ~digest:d))
           (old_forged signer d)
      && D.equal (A.mac_tag (A.mac secret ~peer d)) (old_mac material signer peer d))

let prop_threshold_tags_match_strings =
  QCheck.Test.make ~count:500 ~name:"threshold tags = their strings"
    QCheck.(triple int64 (list_of_size (Gen.int_range 1 7) int) small_string)
    (fun (seed, members, msg) ->
      let members = List.sort_uniq compare members in
      let threshold = 1 + (List.length members / 2) in
      let g = T.create_group ~seed ~members ~threshold in
      let gid = old_group_id seed members threshold in
      let d = D.of_string msg in
      let shares = List.map (fun m -> T.sign_share g ~member:m d) members in
      List.for_all
        (fun s ->
          let member, _, tag = T.share_repr s in
          D.equal tag (old_share_tag gid member d))
        shares
      &&
      match T.combine g ~digest:d shares with
      | Some c -> D.equal (snd (T.combined_repr c)) (old_combined_tag gid d)
      | None -> false)

let () =
  Alcotest.run "crypto"
    [
      ( "digest",
        [
          Alcotest.test_case "deterministic" `Quick test_digest_deterministic;
          Alcotest.test_case "combine order-sensitive" `Quick
            test_digest_combine_order_sensitive;
          Alcotest.test_case "hex" `Quick test_digest_hex;
          QCheck_alcotest.to_alcotest prop_digest_matches_reference_fnv;
          QCheck_alcotest.to_alcotest prop_digest_combine_matches_reference;
          Alcotest.test_case "streaming specials" `Quick test_stream_specials;
          QCheck_alcotest.to_alcotest prop_add_int_is_string_of_int;
          QCheck_alcotest.to_alcotest prop_add_int64_is_to_string;
        ] );
      ( "auth",
        [
          Alcotest.test_case "sign/verify" `Quick test_sign_verify;
          Alcotest.test_case "wrong signer" `Quick test_verify_rejects_wrong_signer;
          Alcotest.test_case "wrong digest" `Quick test_verify_rejects_wrong_digest;
          Alcotest.test_case "forgery rejected" `Quick test_forge_rejected;
          Alcotest.test_case "rotation invalidates" `Quick
            test_rotate_invalidates_old_signatures;
          Alcotest.test_case "mac roundtrip" `Quick test_mac_roundtrip;
          QCheck_alcotest.to_alcotest prop_sign_verify_roundtrip;
          QCheck_alcotest.to_alcotest prop_auth_tags_match_strings;
        ] );
      ( "threshold",
        [
          Alcotest.test_case "combine success" `Quick test_threshold_combine_success;
          Alcotest.test_case "too few shares" `Quick test_threshold_too_few_shares;
          Alcotest.test_case "duplicates don't count" `Quick
            test_threshold_duplicate_members_dont_count;
          Alcotest.test_case "corrupt share rejected" `Quick
            test_threshold_corrupt_share_rejected;
          Alcotest.test_case "mixed digests" `Quick test_threshold_wrong_digest_shares;
          Alcotest.test_case "non-member rejected" `Quick
            test_threshold_nonmember_rejected;
          QCheck_alcotest.to_alcotest prop_threshold_any_quorum_combines;
          QCheck_alcotest.to_alcotest prop_threshold_tags_match_strings;
        ] );
    ]
