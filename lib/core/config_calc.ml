type site_kind = Control_center | Data_center

type configuration = {
  f : int;
  k : int;
  n : int;
  sites : (site_kind * int) list;
}

(* The sizing rule itself lives in [Bft.Quorum]; this module only
   spreads its [n] over sites. *)
let quorum ~f ~k = Bft.Quorum.(quorum_size (minimal ~f ~k))

let tolerates_site_loss c =
  let q = quorum ~f:c.f ~k:c.k in
  List.for_all (fun (_, size) -> c.n - size >= q) c.sites

(* [n] replicas over [sites] sites as evenly as possible, larger sites
   first. *)
let distribute ~n ~sites =
  let base = n / sites and extra = n mod sites in
  List.init sites (fun i -> if i < extra then base + 1 else base)

(* The smallest [n] that meets the resilience bound, tolerates the loss
   of its largest site and puts at least one replica on every site. *)
let minimal_n ~f ~k ~sites =
  if sites < 2 then invalid_arg "Config_calc.minimal_n: need >= 2 sites";
  let minimal = Bft.Quorum.minimal ~f ~k in
  let q = Bft.Quorum.quorum_size minimal in
  let fits n =
    let max_site = (n + sites - 1) / sites in
    n >= sites (* every site hosts at least one replica *)
    && n - max_site >= q
  in
  let n = ref minimal.Bft.Quorum.n in
  while not (fits !n) do
    incr n
  done;
  !n

let spread ~f ~k ~n ~sites ~control_centers =
  let site_list =
    List.mapi
      (fun i size ->
        ((if i < control_centers then Control_center else Data_center), size))
      (distribute ~n ~sites)
  in
  { f; k; n; sites = site_list }

let minimal_config ~f ~k ~sites ~control_centers =
  if control_centers < 1 || control_centers > sites then
    invalid_arg "Config_calc.minimal_config: bad control_centers";
  spread ~f ~k ~n:(minimal_n ~f ~k ~sites) ~sites ~control_centers

let standard_table () =
  List.concat_map
    (fun f ->
      List.concat_map
        (fun k ->
          List.map
            (fun sites -> minimal_config ~f ~k ~sites ~control_centers:2)
            [ 2; 3; 4 ])
        [ 0; 1; 2 ])
    [ 1; 2; 3 ]

let pp ppf c =
  let site_str =
    String.concat "+"
      (List.map
         (fun (kind, size) ->
           Printf.sprintf "%d%s" size
             (match kind with Control_center -> "cc" | Data_center -> "dc"))
         c.sites)
  in
  Format.fprintf ppf "f=%d k=%d n=%d [%s]" c.f c.k c.n site_str
