(** Configuration calculus: how many replicas, spread over how many
    sites, to survive intrusions + proactive recovery + the loss of an
    entire site (experiment E1).

    Requirements encoded, following the paper:
    - tolerate [f] simultaneous intrusions and [k] concurrently
      recovering replicas: the resilience bound of {!Bft.Quorum};
    - {e network-attack resilience}: after disconnecting any single
      site (targeted DoS on a control center, fiber cut, ...), the
      remaining replicas must still contain a quorum even with [f]
      intrusions and [k] recoveries among them — i.e. for every site
      [s]: [n - size(s) >= quorum].

    Sites are control centers (which can talk to field devices) or
    commodity data centers (replicas only). At least 2 control centers
    are required so field communication survives the loss of one. *)

type site_kind = Control_center | Data_center

type configuration = {
  f : int;
  k : int;
  n : int;
  sites : (site_kind * int) list;  (** per-site replica counts *)
}

(** [quorum ~f ~k] is the quorum size of the minimal [f]/[k] system
    ({!Bft.Quorum.quorum_size} of {!Bft.Quorum.minimal}). *)
val quorum : f:int -> k:int -> int

(** [tolerates_site_loss c] checks [n - size(s) >= quorum ~f ~k] for
    every site [s]. *)
val tolerates_site_loss : configuration -> bool

(** [spread ~f ~k ~n ~sites ~control_centers] lays [n] replicas over
    [sites] sites as evenly as possible, larger shares first, the first
    [control_centers] sites being control centers. It checks nothing:
    the layout may leave a site empty or fail {!tolerates_site_loss}. *)
val spread :
  f:int -> k:int -> n:int -> sites:int -> control_centers:int -> configuration

(** [minimal_config ~f ~k ~sites ~control_centers] builds the minimal
    configuration over [sites] sites: the smallest [n] that meets the
    resilience bound, tolerates the loss of any one site and puts at
    least one replica on every site, laid out by {!spread}.
    @raise Invalid_argument if [sites < 2] (one site can never tolerate
    its own loss) or [control_centers] is not in [1 .. sites]. *)
val minimal_config :
  f:int -> k:int -> sites:int -> control_centers:int -> configuration

(** [standard_table ()] is the reproduction of the paper's
    configuration table: minimal configurations for
    [f in 1..3], [k in 0..2], [sites in 2..4] (2 control centers). *)
val standard_table : unit -> configuration list

val pp : Format.formatter -> configuration -> unit
