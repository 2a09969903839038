(* QCheck properties for the configuration calculus (Spire.Config_calc)
   and the epoch-transition rule (Member.Cert.verify_succession).

   The unit table in test_spire pins the paper's concrete
   configurations; these properties pin the *shape* of the calculus
   over the whole small-parameter space: the minimal replica count can
   only grow with the fault budget, and the even spread is exact —
   sums preserved, site sizes within one of each other.  The last
   property pins which resilience changes a reconfiguration may make. *)

module G = QCheck.Gen
module C = Spire.Config_calc
module Cert = Member.Cert

let minimal_config ~f ~k ~sites = C.minimal_config ~f ~k ~sites ~control_centers:2
let minimal_n ~f ~k ~sites = (minimal_config ~f ~k ~sites).C.n

(* The sizing rule comes from Bft.Quorum (pinned in test_bft). *)
let floor_n ~f ~k = (Bft.Quorum.minimal ~f ~k).Bft.Quorum.n
let quorum ~f ~k = Bft.Quorum.(quorum_size (minimal ~f ~k))
let reply ~f ~k = Bft.Quorum.(reply_threshold (minimal ~f ~k))

let gen_f = G.int_range 1 6
let gen_k = G.int_range 0 4
let gen_sites = G.int_range 2 8

(* --------------------------------------------------------------- *)
(* minimal_n monotonicity                                          *)

let prop_minimal_n_monotone_f =
  QCheck.Test.make ~count:300 ~name:"minimal_n is monotone in f"
    (QCheck.make
       (G.triple gen_f gen_k gen_sites)
       ~print:(fun (f, k, sites) -> Printf.sprintf "f=%d k=%d sites=%d" f k sites))
    (fun (f, k, sites) ->
      minimal_n ~f ~k ~sites <= minimal_n ~f:(f + 1) ~k ~sites)

let prop_minimal_n_monotone_k =
  QCheck.Test.make ~count:300 ~name:"minimal_n is monotone in k"
    (QCheck.make
       (G.triple gen_f gen_k gen_sites)
       ~print:(fun (f, k, sites) -> Printf.sprintf "f=%d k=%d sites=%d" f k sites))
    (fun (f, k, sites) ->
      minimal_n ~f ~k ~sites <= minimal_n ~f ~k:(k + 1) ~sites)

let prop_minimal_n_lower_bound =
  QCheck.Test.make ~count:300
    ~name:"minimal_n respects the 3f+2k+1 resilience bound"
    (QCheck.make
       (G.triple gen_f gen_k gen_sites)
       ~print:(fun (f, k, sites) -> Printf.sprintf "f=%d k=%d sites=%d" f k sites))
    (fun (f, k, sites) ->
      minimal_n ~f ~k ~sites >= floor_n ~f ~k)

(* --------------------------------------------------------------- *)
(* The site spread: exact sum, near-even                            *)

let gen_config = G.triple gen_f gen_k gen_sites

let print_config (f, k, sites) = Printf.sprintf "f=%d k=%d sites=%d" f k sites

let sizes ~f ~k ~sites = List.map snd (minimal_config ~f ~k ~sites).C.sites

let prop_distribute_sums =
  QCheck.Test.make ~count:500 ~name:"distribute ~n ~sites sums to n"
    (QCheck.make gen_config ~print:print_config)
    (fun (f, k, sites) ->
      List.fold_left ( + ) 0 (sizes ~f ~k ~sites) = minimal_n ~f ~k ~sites)

let prop_distribute_even =
  QCheck.Test.make ~count:500
    ~name:"distribute site sizes differ by at most 1"
    (QCheck.make gen_config ~print:print_config)
    (fun (f, k, sites) ->
      let d = sizes ~f ~k ~sites in
      List.length d = sites
      &&
      let mx = List.fold_left max min_int d
      and mn = List.fold_left min max_int d in
      mx - mn <= 1)

(* --------------------------------------------------------------- *)
(* minimal_config coherence: ties the two primitives together      *)

let prop_minimal_config_valid =
  QCheck.Test.make ~count:200
    ~name:"minimal_config is valid and tolerates any single site loss"
    (QCheck.make
       (G.triple gen_f gen_k (G.int_range 2 6))
       ~print:(fun (f, k, sites) -> Printf.sprintf "f=%d k=%d sites=%d" f k sites))
    (fun (f, k, sites) ->
      let c = minimal_config ~f ~k ~sites in
      c.C.n >= floor_n ~f ~k
      && C.tolerates_site_loss c
      && List.for_all (fun (_, size) -> size >= 1) c.C.sites)

(* --------------------------------------------------------------- *)
(* Epoch transitions: online reconfiguration must keep quorum       *)
(* intersection across the cutover boundary                         *)

let gen_transition = G.quad gen_f gen_k (G.int_range 0 6) (G.int_range 0 4)

let print_transition (f, k, f', k') =
  Printf.sprintf "old={f=%d;k=%d} new={f=%d;k=%d}" f k f' k'

(* [Set_resilience {f'; k'}] from a one-site genesis at (f, k), signed
   by a genesis quorum. The site holds enough replicas for both
   budgets, so only the transition rule can refuse it. *)
let reconfigure (f, k, f', k') =
  let n = max (floor_n ~f ~k) (floor_n ~f:f' ~k:k') in
  let prev =
    Cert.genesis ~f ~k
      ~sites:
        [ { Cert.site_id = 0; role = Cert.Active_cc; members = List.init n Fun.id } ]
  in
  Member.Reconfig.apply prev
    [ Member.Reconfig.Set_resilience { f = f'; k = k' } ]
    ~signers:(List.init (Cert.quorum_size prev) Fun.id)
    ~boundary_exec:1

let prop_epoch_transition_safe =
  QCheck.Test.make ~count:1000
    ~name:"epoch growth never shrinks quorum below old intersection"
    (QCheck.make gen_transition ~print:print_transition)
    (fun ((f, k, f', k') as t) ->
      let accepted = Result.is_ok (reconfigure t) in
      (* Growing resilience (f or k up, neither down) is always
         accepted... *)
      ((not (f' >= f && k' >= k)) || accepted)
      (* ...and a successor is accepted exactly when its quorum still
         meets the old epoch's f + 1 intersection floor: two old
         quorums overlap in f + 1 replicas at minimal n. *)
      && accepted = (quorum ~f:f' ~k:k' >= reply ~f ~k))

let () =
  Alcotest.run "config_calc"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_minimal_n_monotone_f;
            prop_minimal_n_monotone_k;
            prop_minimal_n_lower_bound;
            prop_distribute_sums;
            prop_distribute_even;
            prop_minimal_config_valid;
            prop_epoch_transition_safe;
          ] );
    ]
