type node = int
type site = int

type link = {
  endpoint_a : node;
  endpoint_b : node;
  latency_us : int;
  bandwidth_bps : int;
}

type t = {
  nodes : int;
  sites : site array;
  mutable links : link list;
  adjacency : (node, (node * link) list) Hashtbl.t;
}

let create ~nodes =
  if nodes <= 0 then invalid_arg "Topology.create: nodes <= 0";
  {
    nodes;
    sites = Array.make nodes 0;
    links = [];
    adjacency = Hashtbl.create 97;
  }

let node_count t = t.nodes

let check_node t n =
  if n < 0 || n >= t.nodes then invalid_arg "Topology: node out of range"

let assign_site t node site =
  check_node t node;
  t.sites.(node) <- site

let site_of t node =
  check_node t node;
  t.sites.(node)

let site_count t =
  Array.fold_left (fun acc s -> max acc (s + 1)) 0 t.sites

let nodes_in_site t site =
  let result = ref [] in
  for n = t.nodes - 1 downto 0 do
    if t.sites.(n) = site then result := n :: !result
  done;
  !result

let adjacency_of t n =
  Option.value ~default:[] (Hashtbl.find_opt t.adjacency n)

let link_between t a b =
  List.find_opt (fun (peer, _) -> peer = b) (adjacency_of t a)
  |> Option.map snd

let add_link t ~a ~b ~latency_us ~bandwidth_bps =
  check_node t a;
  check_node t b;
  if a = b then invalid_arg "Topology.add_link: self-link";
  if Option.is_some (link_between t a b) then
    invalid_arg "Topology.add_link: duplicate link";
  if latency_us < 0 then invalid_arg "Topology.add_link: negative latency";
  if bandwidth_bps <= 0 then invalid_arg "Topology.add_link: bandwidth <= 0";
  let link = { endpoint_a = a; endpoint_b = b; latency_us; bandwidth_bps } in
  t.links <- link :: t.links;
  Hashtbl.replace t.adjacency a ((b, link) :: adjacency_of t a);
  Hashtbl.replace t.adjacency b ((a, link) :: adjacency_of t b)

let links t = List.rev t.links

let neighbors t n =
  check_node t n;
  List.map fst (adjacency_of t n) |> List.sort compare

let connected t =
  if t.nodes = 0 then true
  else begin
    let seen = Array.make t.nodes false in
    let rec visit n =
      if not seen.(n) then begin
        seen.(n) <- true;
        List.iter (fun (peer, _) -> visit peer) (adjacency_of t n)
      end
    in
    visit 0;
    Array.for_all (fun b -> b) seen
  end

let full_mesh ~nodes ~latency_us ~bandwidth_bps =
  let t = create ~nodes in
  for a = 0 to nodes - 1 do
    for b = a + 1 to nodes - 1 do
      add_link t ~a ~b ~latency_us ~bandwidth_bps
    done
  done;
  t

let multi_site ?nodes ~site_sizes ~lan_latency_us ~wan_latency_us
    ~lan_bandwidth_bps ~wan_bandwidth_bps () =
  let total = List.fold_left ( + ) 0 site_sizes in
  let t = create ~nodes:(Option.value ~default:total nodes) in
  (* Assign sites and build per-site LANs. *)
  let site_members =
    let offset = ref 0 in
    List.mapi
      (fun site size ->
        let members = List.init size (fun i -> !offset + i) in
        offset := !offset + size;
        List.iter (fun n -> assign_site t n site) members;
        members)
      site_sizes
  in
  List.iter
    (fun members ->
      let arr = Array.of_list members in
      let count = Array.length arr in
      for i = 0 to count - 1 do
        for j = i + 1 to count - 1 do
          add_link t ~a:arr.(i) ~b:arr.(j) ~latency_us:lan_latency_us
            ~bandwidth_bps:lan_bandwidth_bps
        done
      done)
    site_members;
  (* WAN links between sites: primary link between the first node of
     each site, and a redundant link between second nodes when both
     sites have at least two members, so that no single WAN link failure
     partitions a site pair. *)
  let sites = Array.of_list site_members in
  for sa = 0 to Array.length sites - 1 do
    for sb = sa + 1 to Array.length sites - 1 do
      let lat = wan_latency_us sa sb in
      (match (sites.(sa), sites.(sb)) with
      | a0 :: _, b0 :: _ ->
        add_link t ~a:a0 ~b:b0 ~latency_us:lat ~bandwidth_bps:wan_bandwidth_bps
      | _, _ -> ());
      (match (sites.(sa), sites.(sb)) with
      | _ :: a1 :: _, _ :: b1 :: _ ->
        add_link t ~a:a1 ~b:b1 ~latency_us:lat ~bandwidth_bps:wan_bandwidth_bps
      | _, _ -> ())
    done
  done;
  t

(* Sites: 0 = control center A (Baltimore), 1 = control center B
   (Washington DC), 2 = data center C (New York), 3 = data center D
   (Boston). One-way latencies approximate published inter-city
   values. *)
let east_coast_wan_us a b =
  match (min a b, max a b) with
  | 0, 1 -> 2_000 (* Baltimore <-> DC *)
  | 0, 2 -> 4_000 (* Baltimore <-> NYC *)
  | 0, 3 -> 8_000 (* Baltimore <-> Boston *)
  | 1, 2 -> 5_000 (* DC <-> NYC *)
  | 1, 3 -> 9_000 (* DC <-> Boston *)
  | 2, 3 -> 5_000 (* NYC <-> Boston *)
  | _ -> 10_000

let wide_area_east_coast () =
  let t =
    multi_site ~site_sizes:[ 3; 3; 2; 2 ] ~lan_latency_us:100
      ~wan_latency_us:east_coast_wan_us
      ~lan_bandwidth_bps:125_000_000 (* 1 Gbps LAN *)
      ~wan_bandwidth_bps:12_500_000 (* 100 Mbps WAN *) ()
  in
  (t, [ (0, `Control_center); (1, `Control_center); (2, `Data_center); (3, `Data_center) ])
