(* Membership subsystem tests: certificate structure and succession,
   the reconfiguration command codec and semantics, the certificate
   directory, and an end-to-end online-reconfiguration run through the
   full system (control-center promotion, site removal, membership
   growth into pre-provisioned standby replicas). *)

module Cert = Member.Cert
module Reconfig = Member.Reconfig
module Directory = Member.Directory
module Sys_ = Spire.System
module G = QCheck.Gen

(* The paper's flagship shape: 2 control centers with 2 replicas, 2
   data centers with 1; f = 1, k = 1, n = 6. *)
let flagship () =
  Cert.genesis ~f:1 ~k:1
    ~sites:
      [
        { Cert.site_id = 0; role = Cert.Active_cc; members = [ 0; 1 ] };
        { Cert.site_id = 1; role = Cert.Backup_cc; members = [ 2; 3 ] };
        { Cert.site_id = 2; role = Cert.Data_center; members = [ 4 ] };
        { Cert.site_id = 3; role = Cert.Data_center; members = [ 5 ] };
      ]

(* Global ids of the deployment's current membership, in rank order. *)
let members sys = Cert.members (Directory.current (Sys_.directory sys))

(* ------------------------------------------------------------------ *)
(* Certificates                                                        *)

let test_genesis_shape () =
  let c = flagship () in
  Alcotest.(check int) "epoch" 0 (Cert.epoch c);
  Alcotest.(check int) "n" 6 (Cert.n c);
  Alcotest.(check int) "quorum" 4 (Cert.quorum_size c);
  Alcotest.(check int) "reply" 2 (Cert.reply_threshold c);
  Alcotest.(check (list int)) "members in site order" [ 0; 1; 2; 3; 4; 5 ]
    (Cert.members c)

let test_genesis_rejects_invalid () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "two active CCs" true
    (raises (fun () ->
         Cert.genesis ~f:1 ~k:1
           ~sites:
             [
               { Cert.site_id = 0; role = Cert.Active_cc; members = [ 0; 1; 2 ] };
               { Cert.site_id = 1; role = Cert.Active_cc; members = [ 3; 4; 5 ] };
             ]));
  Alcotest.(check bool) "n below 3f+2k+1" true
    (raises (fun () ->
         Cert.genesis ~f:1 ~k:1
           ~sites:
             [ { Cert.site_id = 0; role = Cert.Active_cc; members = [ 0; 1 ] } ]));
  Alcotest.(check bool) "duplicate member across sites" true
    (raises (fun () ->
         Cert.genesis ~f:1 ~k:0
           ~sites:
             [
               { Cert.site_id = 0; role = Cert.Active_cc; members = [ 0; 1 ] };
               { Cert.site_id = 1; role = Cert.Backup_cc; members = [ 1; 2 ] };
             ]))

let test_succession_checks () =
  let prev = flagship () in
  let ok_actions = [ Reconfig.Promote 1 ] in
  (* A previous-epoch quorum of signers is required. *)
  (match
     Reconfig.apply prev ok_actions ~signers:[ 0; 1; 2 ] ~boundary_exec:10
   with
  | Ok _ -> Alcotest.fail "sub-quorum signers accepted"
  | Error _ -> ());
  (* Signers must be previous-epoch members. *)
  (match
     Reconfig.apply prev ok_actions ~signers:[ 0; 1; 2; 42 ] ~boundary_exec:10
   with
  | Ok _ -> Alcotest.fail "foreign signer accepted"
  | Error _ -> ());
  (* A full quorum of genuine members succeeds; the boundary may equal
     the previous one (non-strict monotonicity) but never regress. *)
  let next =
    match
      Reconfig.apply prev ok_actions ~signers:[ 0; 1; 2; 3 ] ~boundary_exec:10
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "valid succession rejected: %s" e
  in
  Alcotest.(check int) "epoch advanced" 1 (Cert.epoch next);
  Alcotest.(check bool) "chain digest linked" true
    (Cryptosim.Digest.equal next.Cert.prev_digest (Cert.digest prev));
  (match
     Reconfig.apply next [ Reconfig.Promote 0 ] ~signers:(Cert.members next)
       ~boundary_exec:9
   with
  | Ok _ -> Alcotest.fail "boundary regression accepted"
  | Error _ -> ());
  match
    Reconfig.apply next [ Reconfig.Promote 0 ] ~signers:(Cert.members next)
      ~boundary_exec:10
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "equal boundary rejected: %s" e

(* ------------------------------------------------------------------ *)
(* Reconfiguration actions                                             *)

let test_action_semantics () =
  let prev = flagship () in
  let signers = Cert.members prev in
  (* Promote demotes the incumbent active control center. *)
  let next =
    match Reconfig.apply prev [ Reconfig.Promote 1 ] ~signers ~boundary_exec:5 with
    | Ok c -> c
    | Error e -> Alcotest.failf "promote failed: %s" e
  in
  let role_of id =
    match List.find_opt (fun s -> s.Cert.site_id = id) next.Cert.sites with
    | Some s -> s.Cert.role
    | None -> Alcotest.failf "site %d missing" id
  in
  Alcotest.(check bool) "site 1 active" true (role_of 1 = Cert.Active_cc);
  Alcotest.(check bool) "site 0 demoted" true (role_of 0 = Cert.Backup_cc);
  (* Data centers cannot be promoted; unknown sites cannot be removed;
     new sites cannot join as the active control center. *)
  let fails actions =
    match Reconfig.apply prev actions ~signers ~boundary_exec:5 with
    | Ok _ -> false
    | Error _ -> true
  in
  Alcotest.(check bool) "promote data center" true
    (fails [ Reconfig.Promote 2 ]);
  Alcotest.(check bool) "remove unknown site" true
    (fails [ Reconfig.Remove_site 7 ]);
  Alcotest.(check bool) "add duplicate member" true
    (fails
       [
         Reconfig.Add_site
           { site_id = 9; role = Cert.Data_center; members = [ 5; 6 ] };
       ]);
  Alcotest.(check bool) "add active cc" true
    (fails
       [
         Reconfig.Add_site
           { site_id = 9; role = Cert.Active_cc; members = [ 6; 7 ] };
       ]);
  (* Removing the active control center requires promoting another
     first (exactly one active CC must remain) — and shrinking n below
     3f+2k+1 is rejected unless resilience is reduced in the same
     atomic command. *)
  Alcotest.(check bool) "remove active cc alone" true
    (fails [ Reconfig.Remove_site 0 ]);
  match
    Reconfig.apply prev
      [
        Reconfig.Set_resilience { f = 1; k = 0 };
        Reconfig.Promote 1;
        Reconfig.Remove_site 0;
      ]
      ~signers ~boundary_exec:5
  with
  | Ok c ->
    Alcotest.(check int) "failover n" 4 (Cert.n c);
    Alcotest.(check int) "failover quorum" 3 (Cert.quorum_size c)
  | Error e -> Alcotest.failf "atomic failover rejected: %s" e

(* The codec carries f and k up to 255, but quorum milestones count
   replica sets as the bits of one int: a resilience floor above
   [Bft.Quorum.max_n] replicas is an Error, never an exception. *)
let test_oversized_resilience () =
  let prev = flagship () in
  let apply actions =
    Reconfig.apply prev actions ~signers:(Cert.members prev) ~boundary_exec:5
  in
  List.iter
    (fun (f, k, msg) ->
      Alcotest.(check (result reject string))
        (Printf.sprintf "f=%d k=%d" f k) (Error msg)
        (apply [ Reconfig.Set_resilience { f; k } ]))
    [
      (21, 0, "f=21 k=0 need more than 62 replicas");
      (0, 31, "f=0 k=31 need more than 62 replicas");
      (255, 255, "f=255 k=255 need more than 62 replicas");
    ];
  (* Floor 61 with six members: below the floor, as before. *)
  Alcotest.(check (result reject string)) "f=20 k=0"
    (Error "n=6 below the resilience floor 61")
    (apply [ Reconfig.Set_resilience { f = 20; k = 0 } ]);
  Alcotest.(check (result reject string)) "63 members"
    (Error "n=63 above 62 replicas")
    (apply
       [
         Reconfig.Add_site
           {
             site_id = 4;
             role = Cert.Data_center;
             members = List.init 57 (fun i -> 6 + i);
           };
       ])

let gen_role =
  G.oneofl [ Cert.Active_cc; Cert.Backup_cc; Cert.Data_center ]

let gen_action =
  G.oneof
    [
      G.map
        (fun (f, k) -> Reconfig.Set_resilience { f; k })
        (G.pair (G.int_bound 255) (G.int_bound 255));
      G.map (fun s -> Reconfig.Remove_site s) (G.int_bound 0xffff);
      G.map
        (fun ((site_id, role), members) ->
          Reconfig.Add_site { site_id; role; members })
        (G.pair
           (G.pair (G.int_bound 0xffff) gen_role)
           (G.list_size (G.int_bound 5) (G.int_bound 0xffff)));
      G.map (fun s -> Reconfig.Promote s) (G.int_bound 0xffff);
    ]

let prop_reconfig_roundtrip =
  QCheck.Test.make ~count:500 ~name:"reconfig codec roundtrip"
    (QCheck.make
       ~print:(Format.asprintf "%a" Reconfig.pp)
       (G.list_size (G.int_bound 6) gen_action))
    (fun actions ->
      match Reconfig.decode (Reconfig.encode actions) with
      | Ok actions' -> actions' = actions
      | Error e -> QCheck.Test.fail_reportf "decode error: %s" e)

let prop_reconfig_junk =
  QCheck.Test.make ~count:500 ~name:"reconfig decode total on junk"
    (QCheck.make (G.string_size ~gen:G.char (G.int_bound 30)))
    (fun s ->
      match Reconfig.decode s with Ok _ -> true | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Directory                                                           *)

let test_directory_chain () =
  let d = Directory.create ~genesis:(flagship ()) in
  let prev = Directory.current d in
  let next =
    match
      Directory.advance d [ Reconfig.Promote 1 ] ~signers:(Cert.members prev)
        ~boundary_exec:7
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "advance failed: %s" e
  in
  Alcotest.(check int) "epoch" 1 (Directory.epoch d);
  Alcotest.(check bool) "epoch 1 installed" true
    (Directory.cert_of_epoch d 1 = Some next);
  (* Re-installing an existing certificate is idempotent. *)
  (match Directory.install d next with
  | Ok () -> ()
  | Error e -> Alcotest.failf "idempotent install failed: %s" e);
  Alcotest.(check int) "epoch unchanged" 1 (Directory.epoch d);
  Alcotest.(check bool) "current unchanged" true (Directory.current d == next);
  (* A fork at the same epoch is rejected. *)
  let fork =
    match
      Reconfig.apply prev [ Reconfig.Promote 1 ] ~signers:(Cert.members prev)
        ~boundary_exec:8
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "fork construction failed: %s" e
  in
  (match Directory.install d fork with
  | Ok () -> Alcotest.fail "fork accepted"
  | Error _ -> ());
  (* A gap (epoch + 2) is rejected. *)
  let skip =
    match
      Reconfig.apply next [ Reconfig.Promote 0 ] ~signers:(Cert.members next)
        ~boundary_exec:9
    with
    | Ok c -> { c with Cert.epoch = 3 }
    | Error e -> Alcotest.failf "skip construction failed: %s" e
  in
  match Directory.install d skip with
  | Ok () -> Alcotest.fail "gap accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* End-to-end online reconfiguration                                   *)

(* Control-center failover, then growth into a pre-provisioned standby
   site: the reconfiguration command travels through the ordered
   stream, every replica halts at the same boundary, and the standby
   replicas are walked in by the reconciler through a chunk-gated
   vouched state transfer. *)
let test_system_reconfiguration () =
  let cfg =
    {
      (Sys_.default_config ()) with
      Sys_.standby_site_sizes = [ 2 ];
      substations = 4;
      poll_interval_us = 50_000;
    }
  in
  let sys = Sys_.create cfg in
  Alcotest.(check int) "universe" 8 (Sys_.universe_count sys);
  (* Only the six genesis members run an instance; standbys 6, 7 do not. *)
  Alcotest.(check (list (pair int int))) "standby dark" [ (0, 6) ]
    (Sys_.epoch_activity sys);
  Sys_.start sys;
  Sys_.run sys ~duration_us:2_000_000;
  let confirmed_before = Sys_.confirmed_updates sys in
  Alcotest.(check bool) "baseline progress" true (confirmed_before > 50);
  (* Failover: promote the backup control center, drop the primary,
     shrink resilience to keep n >= 3f+2k+1 over the surviving sites. *)
  Sys_.submit_reconfig sys
    [
      Member.Reconfig.Set_resilience { f = 1; k = 0 };
      Member.Reconfig.Promote 1;
      Member.Reconfig.Remove_site 0;
    ];
  Sys_.run sys ~duration_us:4_000_000;
  Alcotest.(check int) "epoch 1 active" 1 (Sys_.current_epoch sys);
  Alcotest.(check (list int)) "epoch 1 membership" [ 2; 3; 4; 5 ]
    (members sys);
  (* Only the four members run epoch 1: the primary site retired. *)
  Alcotest.(check (list (pair int int))) "primary retired" [ (1, 4) ]
    (Sys_.epoch_activity sys);
  let confirmed_mid = Sys_.confirmed_updates sys in
  Alcotest.(check bool) "progress across failover" true
    (confirmed_mid > confirmed_before + 50);
  (* Growth: restore full resilience by admitting the standby site. *)
  Sys_.submit_reconfig sys
    [
      Member.Reconfig.Set_resilience { f = 1; k = 1 };
      Member.Reconfig.Add_site
        { site_id = 4; role = Member.Cert.Data_center; members = [ 6; 7 ] };
    ];
  Sys_.run sys ~duration_us:6_000_000;
  Alcotest.(check int) "epoch 2 active" 2 (Sys_.current_epoch sys);
  Alcotest.(check (list int)) "epoch 2 membership" [ 2; 3; 4; 5; 6; 7 ]
    (members sys);
  (* All six members, standbys 6 and 7 included, run epoch 2. *)
  Alcotest.(check (list (pair int int))) "standbys joined" [ (2, 6) ]
    (Sys_.epoch_activity sys);
  let confirmed_after = Sys_.confirmed_updates sys in
  Alcotest.(check bool) "progress across growth" true
    (confirmed_after > confirmed_mid + 50);
  Alcotest.(check (option string)) "no epoch violation" None
    (Sys_.epoch_violation sys);
  Alcotest.(check int) "two cutovers" 2 (List.length (Sys_.cutovers sys));
  (* Boundaries never regress across the chain. *)
  (match Sys_.cutovers sys with
  | [ (1, b1, _); (2, b2, _) ] ->
    Alcotest.(check bool) "boundary monotone" true (b1 <= b2)
  | other ->
    Alcotest.failf "unexpected cutovers (%d)" (List.length other));
  Sys_.assert_agreement sys

(* ------------------------------------------------------------------ *)
(* Epoch admission rules                                               *)

let running_system () =
  let sys =
    Sys_.create
      {
        (Sys_.default_config ()) with
        Sys_.standby_site_sizes = [ 2 ];
        substations = 4;
        poll_interval_us = 50_000;
      }
  in
  Sys_.start sys;
  Sys_.run sys ~duration_us:1_000_000;
  sys

(* The command is ordered and confirmed like any update, and every
   replica rejects it identically: no halt, no cutover, no violation,
   service continues and the replicas still agree. *)
let expect_reconfig_noop sys submit =
  let hmi = Sys_.hmi sys 0 in
  let confirmed = Scada.Hmi.confirmed_commands hmi in
  let updates = Sys_.confirmed_updates sys in
  submit ();
  Sys_.run sys ~duration_us:2_000_000;
  Alcotest.(check int) "reconfig ordered and confirmed" (confirmed + 1)
    (Scada.Hmi.confirmed_commands hmi);
  Alcotest.(check int) "epoch unchanged" 0 (Sys_.current_epoch sys);
  Alcotest.(check (list int)) "membership unchanged" [ 0; 1; 2; 3; 4; 5 ]
    (members sys);
  Alcotest.(check int) "no cutover" 0 (List.length (Sys_.cutovers sys));
  Alcotest.(check (option string)) "no epoch violation" None
    (Sys_.epoch_violation sys);
  Alcotest.(check bool) "service continues" true
    (Sys_.confirmed_updates sys > updates + 50);
  Sys_.assert_agreement sys

let test_add_site_outside_universe () =
  let sys = running_system () in
  (* Universe = 8 (ids 0..7): id 8 names no provisioned replica. *)
  expect_reconfig_noop sys (fun () ->
      Sys_.submit_reconfig sys
        [
          Reconfig.Add_site
            { site_id = 4; role = Cert.Data_center; members = [ 7; 8 ] };
        ])

let test_oversized_resilience_noop () =
  let sys = running_system () in
  expect_reconfig_noop sys (fun () ->
      Sys_.submit_reconfig sys [ Reconfig.Set_resilience { f = 21; k = 0 } ])

let test_undecodable_reconfig () =
  let sys = running_system () in
  let payload = "\xff\x00 not a reconfiguration" in
  Alcotest.(check bool) "payload undecodable" true
    (Result.is_error (Reconfig.decode payload));
  expect_reconfig_noop sys (fun () ->
      ignore
        (Scada.Endpoint.send_op
           (Scada.Hmi.endpoint (Sys_.hmi sys 0))
           (Scada.Op.Reconfig { payload })
          : Bft.Update.t))

(* After the epoch-1 cutover (site 0 removed), frames that do not
   belong to the receiver's epoch never reach its protocol instance:
   each is counted once in [stale_epoch_frames]. *)
let test_stale_frames_after_cutover () =
  let sys = running_system () in
  Sys_.submit_reconfig sys
    [
      Reconfig.Set_resilience { f = 1; k = 0 };
      Reconfig.Promote 1;
      Reconfig.Remove_site 0;
    ];
  Sys_.run sys ~duration_us:4_000_000;
  Alcotest.(check int) "epoch 1 active" 1 (Sys_.current_epoch sys);
  Alcotest.(check (list (pair int int))) "replica 0 retired" [ (1, 4) ]
    (Sys_.epoch_activity sys);
  let net = Sys_.net sys in
  let vote = Prime.Msg.Suspect { view = 0 } in
  let stale_frames_from ~src ~dst payload =
    let before = Sys_.stale_epoch_frames sys in
    Overlay.Net.send net ~size_bytes:64
      ~src:(Sys_.node_of_replica sys src)
      ~dst:(Sys_.node_of_replica sys dst)
      ~mode:Overlay.Net.Shortest payload;
    Sys_.run sys ~duration_us:100_000;
    Sys_.stale_epoch_frames sys - before
  in
  Alcotest.(check int) "bare genesis frame dropped" 1
    (stale_frames_from ~src:2 ~dst:3 (Wire.Message.Prime_msg (2, vote)));
  (* The overlay itself refuses a retired source id; lifting that guard
     exercises the system's own check against the epoch membership. *)
  Overlay.Net.unretire_node net (Sys_.node_of_replica sys 0);
  Alcotest.(check int) "retired sender's frame dropped" 1
    (stale_frames_from ~src:0 ~dst:3
       (Wire.Message.Epoch_frame (1, Wire.Message.Prime_msg (0, vote))));
  Alcotest.(check (option string)) "no epoch violation" None
    (Sys_.epoch_violation sys);
  Sys_.assert_agreement sys

let () =
  QCheck_base_runner.set_seed 62193;
  Alcotest.run "member"
    [
      ( "cert",
        [
          Alcotest.test_case "genesis shape" `Quick test_genesis_shape;
          Alcotest.test_case "genesis rejects invalid" `Quick
            test_genesis_rejects_invalid;
          Alcotest.test_case "succession checks" `Quick test_succession_checks;
        ] );
      ( "reconfig",
        [
          Alcotest.test_case "action semantics" `Quick test_action_semantics;
          Alcotest.test_case "oversized resilience rejected" `Quick
            test_oversized_resilience;
          QCheck_alcotest.to_alcotest prop_reconfig_roundtrip;
          QCheck_alcotest.to_alcotest prop_reconfig_junk;
        ] );
      ( "directory",
        [ Alcotest.test_case "chain rules" `Quick test_directory_chain ] );
      ( "system",
        [
          Alcotest.test_case "online reconfiguration end to end" `Slow
            test_system_reconfiguration;
        ] );
      ( "epochs",
        [
          Alcotest.test_case "add_site outside the universe is a no-op" `Quick
            test_add_site_outside_universe;
          Alcotest.test_case "undecodable reconfig is a no-op" `Quick
            test_undecodable_reconfig;
          Alcotest.test_case "oversized resilience is a no-op" `Quick
            test_oversized_resilience_noop;
          Alcotest.test_case "stale frames dropped after a cutover" `Quick
            test_stale_frames_after_cutover;
        ] );
    ]
