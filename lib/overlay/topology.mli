(** Static description of an overlay network: nodes, sites, links.

    An overlay node models one Spines daemon. Nodes belong to {e sites}
    (a control center or data center); intra-site links are fast LAN
    links, inter-site links are WAN links with city-to-city latencies.

    The topology is immutable; runtime state (links up/down, queues) is
    owned by {!Net}. *)

type node = int
type site = int

type link = {
  endpoint_a : node;
  endpoint_b : node;
  latency_us : int;  (** one-way propagation delay *)
  bandwidth_bps : int;  (** serialisation bandwidth, bytes per second *)
}

type t

(** [create ~nodes] starts a topology with [nodes] nodes, all in site 0
    and no links. *)
val create : nodes:int -> t

(** [node_count t] / [site_count t]. *)
val node_count : t -> int

val site_count : t -> int

(** [assign_site t node site] places [node] in [site]. *)
val assign_site : t -> node -> site -> unit

(** [site_of t node] is the site of [node]. *)
val site_of : t -> node -> site

(** [nodes_in_site t site] lists nodes of a site, ascending. *)
val nodes_in_site : t -> site -> node list

(** [add_link t ~a ~b ~latency_us ~bandwidth_bps] adds an undirected
    link. @raise Invalid_argument on self-links, duplicate links, or
    out-of-range nodes. *)
val add_link :
  t -> a:node -> b:node -> latency_us:int -> bandwidth_bps:int -> unit

(** [links t] is every undirected link. *)
val links : t -> link list

(** [neighbors t node] lists the nodes adjacent to [node]. *)
val neighbors : t -> node -> node list

(** [link_between t a b] finds the link joining [a] and [b], if any. *)
val link_between : t -> node -> node -> link option

(** [connected t] checks that the graph is connected (ignoring failures). *)
val connected : t -> bool

(** {1 Topology builders} *)

(** [full_mesh ~nodes ~latency_us ~bandwidth_bps] is a clique; models a
    LAN segment. *)
val full_mesh : nodes:int -> latency_us:int -> bandwidth_bps:int -> t

(** [multi_site ?nodes ~site_sizes ~lan_latency_us ~wan_latency_us
     ~lan_bandwidth_bps ~wan_bandwidth_bps ()] builds one full-mesh LAN
    per site and a full mesh of WAN links between sites (one WAN link
    per node pair across sites would be overkill; each pair of sites is
    joined by links between the first node of each site plus redundant
    links between the second nodes when both sites have them).

    Site members are numbered consecutively from node 0 in
    [site_sizes] order. [nodes] (default: the sum of [site_sizes])
    sizes the node space; nodes past the sites are left unlinked in
    site 0 for the caller to place. Links are added LANs first, then
    WAN site pairs in ascending order — route tie-breaks depend on it.

    [wan_latency_us] is indexed by unordered site pair via
    [wan_latency_us sa sb]. *)
val multi_site :
  ?nodes:int ->
  site_sizes:int list ->
  lan_latency_us:int ->
  wan_latency_us:(site -> site -> int) ->
  lan_bandwidth_bps:int ->
  wan_bandwidth_bps:int ->
  unit ->
  t

(** [east_coast_wan_us sa sb] is the one-way WAN latency between the
    paper's four East-coast sites (0-1 control centers, 2-3 data
    centers), symmetric; 10 ms for any other pair. *)
val east_coast_wan_us : site -> site -> int

(** [wide_area_east_coast ()] is the reproduction of the paper's
    deployment substrate: 4 sites — two control centers and two data
    centers on the US East coast — with 3, 3, 2 and 2 overlay daemons
    and WAN latencies drawn from published inter-city RTT/2 values
    (5-16 ms one way). Returns the topology and the list of sites
    [(site, kind)] where kind is [`Control_center] or [`Data_center]. *)
val wide_area_east_coast :
  unit -> t * (site * [ `Control_center | `Data_center ]) list
