module Platform = Dls_platform.Platform
module Prng = Dls_util.Prng

type kind =
  | Link_down of int
  | Link_up of int
  | Link_degrade of { link : int; factor : float }
  | Max_connect of { link : int; limit : int }
  | Cluster_throttle of { cluster : int; factor : float }
  | Cluster_crash of int

type event = { time : float; kind : kind }

type policy = Stall | Kill

type plan = event list (* sorted by time, stable *)

let empty = []
let events plan = plan
let is_empty plan = plan = []

let check_factor what f =
  if not (f > 0.0 && f <= 1.0) then
    invalid_arg (Printf.sprintf "Faults.make: %s factor %g outside (0, 1]" what f)

let validate_event p ev =
  let nl = Platform.num_backbones p and nc = Platform.num_clusters p in
  let check_link i =
    if i < 0 || i >= nl then
      invalid_arg (Printf.sprintf "Faults.make: backbone link %d out of range" i)
  and check_cluster c =
    if c < 0 || c >= nc then
      invalid_arg (Printf.sprintf "Faults.make: cluster %d out of range" c)
  in
  if not (ev.time >= 0.0 && ev.time < infinity) then
    invalid_arg (Printf.sprintf "Faults.make: event time %g not in [0, inf)" ev.time);
  match ev.kind with
  | Link_down i | Link_up i -> check_link i
  | Link_degrade { link; factor } ->
    check_link link;
    check_factor "degradation" factor
  | Max_connect { link; limit } ->
    check_link link;
    if limit < 0 then
      invalid_arg (Printf.sprintf "Faults.make: negative max_connect limit %d" limit)
  | Cluster_throttle { cluster; factor } ->
    check_cluster cluster;
    check_factor "throttle" factor
  | Cluster_crash c -> check_cluster c

let make p evs =
  List.iter (validate_event p) evs;
  List.stable_sort (fun a b -> compare a.time b.time) evs

let pp_kind fmt = function
  | Link_down i -> Format.fprintf fmt "link %d down" i
  | Link_up i -> Format.fprintf fmt "link %d up" i
  | Link_degrade { link; factor } ->
    Format.fprintf fmt "link %d degrade x%.17g" link factor
  | Max_connect { link; limit } ->
    Format.fprintf fmt "link %d max_connect %d" link limit
  | Cluster_throttle { cluster; factor } ->
    Format.fprintf fmt "cluster %d throttle x%.17g" cluster factor
  | Cluster_crash c -> Format.fprintf fmt "cluster %d crash" c

let pp_event fmt ev = Format.fprintf fmt "t=%.17g %a" ev.time pp_kind ev.kind

(* JSON codec for kinds — the daemon's [platform_delta] wire format.
   Field names mirror the record labels; the tag is the constructor in
   snake_case. *)
module J = Dls_util.Json

let kind_to_json = function
  | Link_down i -> J.Obj [ ("fault", J.Str "link_down"); ("link", J.Num (float_of_int i)) ]
  | Link_up i -> J.Obj [ ("fault", J.Str "link_up"); ("link", J.Num (float_of_int i)) ]
  | Link_degrade { link; factor } ->
    J.Obj
      [ ("fault", J.Str "link_degrade"); ("link", J.Num (float_of_int link));
        ("factor", J.Num factor) ]
  | Max_connect { link; limit } ->
    J.Obj
      [ ("fault", J.Str "max_connect"); ("link", J.Num (float_of_int link));
        ("limit", J.Num (float_of_int limit)) ]
  | Cluster_throttle { cluster; factor } ->
    J.Obj
      [ ("fault", J.Str "cluster_throttle");
        ("cluster", J.Num (float_of_int cluster)); ("factor", J.Num factor) ]
  | Cluster_crash c ->
    J.Obj [ ("fault", J.Str "cluster_crash"); ("cluster", J.Num (float_of_int c)) ]

let kind_of_json j =
  let ( let* ) = Result.bind in
  let field name conv =
    match J.member name j with
    | None -> Error (Printf.sprintf "fault: missing field %S" name)
    | Some v -> conv v
  in
  let* tag = field "fault" J.to_str in
  match tag with
  | "link_down" ->
    let* i = field "link" J.to_int in
    Ok (Link_down i)
  | "link_up" ->
    let* i = field "link" J.to_int in
    Ok (Link_up i)
  | "link_degrade" ->
    let* link = field "link" J.to_int in
    let* factor = field "factor" J.to_num in
    Ok (Link_degrade { link; factor })
  | "max_connect" ->
    let* link = field "link" J.to_int in
    let* limit = field "limit" J.to_int in
    Ok (Max_connect { link; limit })
  | "cluster_throttle" ->
    let* cluster = field "cluster" J.to_int in
    let* factor = field "factor" J.to_num in
    Ok (Cluster_throttle { cluster; factor })
  | "cluster_crash" ->
    let* c = field "cluster" J.to_int in
    Ok (Cluster_crash c)
  | other -> Error (Printf.sprintf "fault: unknown kind %S" other)

let trace plan =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  List.iter (fun ev -> Format.fprintf fmt "%a@\n" pp_event ev) plan;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* Per-entity Poisson episode processes.  Entity streams are derived,
   not split, so entity [i]'s draws do not depend on how many other
   entities exist or in which order they are generated — the property
   the 1-vs-8-domain determinism test pins down. *)
let random ~seed ~horizon ?(link_rate = 0.0) ?(cluster_rate = 0.0) p =
  if not (horizon >= 0.0 && horizon < infinity) then
    invalid_arg (Printf.sprintf "Faults.random: horizon %g not in [0, inf)" horizon);
  if link_rate < 0.0 || cluster_rate < 0.0 then
    invalid_arg "Faults.random: negative event rate";
  let exponential g ~rate =
    (* inversion; [Prng.float] is in [0, 1) so [1 - u] never hits 0 *)
    let u = Prng.float g ~lo:0.0 ~hi:1.0 in
    -.log (1.0 -. u) /. rate
  in
  let evs = ref [] in
  let emit time kind = evs := { time; kind } :: !evs in
  if link_rate > 0.0 then
    for i = 0 to Platform.num_backbones p - 1 do
      let g = Prng.derive ~seed ~index:(2 * i) in
      let nominal = (Platform.backbone p i).Platform.max_connect in
      let t = ref (exponential g ~rate:link_rate) in
      while !t < horizon do
        (* one fault episode: onset now, restoration at the next arrival
           (restorations past the horizon still land inside it so runs
           do not end with every link wedged down) *)
        let t_end = !t +. exponential g ~rate:(3.0 *. link_rate) in
        (match Prng.int g ~lo:0 ~hi:2 with
        | 0 ->
          emit !t (Link_down i);
          emit t_end (Link_up i)
        | 1 ->
          let factor = Prng.float g ~lo:0.1 ~hi:0.9 in
          emit !t (Link_degrade { link = i; factor });
          emit t_end (Link_up i)
        | _ ->
          if nominal >= 1 then begin
            let limit = Prng.int g ~lo:0 ~hi:(nominal - 1) in
            emit !t (Max_connect { link = i; limit });
            emit t_end (Max_connect { link = i; limit = nominal })
          end
          else begin
            emit !t (Link_down i);
            emit t_end (Link_up i)
          end);
        t := t_end +. exponential g ~rate:link_rate
      done
    done;
  if cluster_rate > 0.0 then
    for c = 0 to Platform.num_clusters p - 1 do
      let g = Prng.derive ~seed ~index:((2 * c) + 1) in
      let t = ref (exponential g ~rate:cluster_rate) in
      let alive = ref true in
      while !alive && !t < horizon do
        if Prng.bool g ~p:0.15 then begin
          emit !t (Cluster_crash c);
          alive := false
        end
        else begin
          let factor = Prng.float g ~lo:0.1 ~hi:0.9 in
          let t_end = !t +. exponential g ~rate:(3.0 *. cluster_rate) in
          emit !t (Cluster_throttle { cluster = c; factor });
          emit t_end (Cluster_throttle { cluster = c; factor = 1.0 });
          t := t_end +. exponential g ~rate:cluster_rate
        end
      done
    done;
  (* [!evs] is reverse-entity-ordered; re-reverse before the stable sort
     so simultaneous events apply in entity order. *)
  make p (List.rev !evs)

type state = {
  platform : Platform.t;
  mutable pending : event list;
  link_down : bool array;
  link_deg : float array;
  link_maxcon : int array;  (* current cap while the link is up *)
  speed_fac : float array;
  crashed_ : bool array;
}

let start p plan =
  {
    platform = p;
    pending = plan;
    link_down = Array.make (Platform.num_backbones p) false;
    link_deg = Array.make (Platform.num_backbones p) 1.0;
    link_maxcon =
      Array.init (Platform.num_backbones p) (fun i ->
          (Platform.backbone p i).Platform.max_connect);
    speed_fac = Array.make (Platform.num_clusters p) 1.0;
    crashed_ = Array.make (Platform.num_clusters p) false;
  }

let next_time st =
  match st.pending with [] -> None | ev :: _ -> Some ev.time

let apply st = function
  | Link_down i -> st.link_down.(i) <- true
  | Link_up i ->
    st.link_down.(i) <- false;
    st.link_deg.(i) <- 1.0
  | Link_degrade { link; factor } -> st.link_deg.(link) <- factor
  | Max_connect { link; limit } -> st.link_maxcon.(link) <- limit
  | Cluster_throttle { cluster; factor } ->
    if not st.crashed_.(cluster) then st.speed_fac.(cluster) <- factor
  | Cluster_crash c ->
    st.crashed_.(c) <- true;
    st.speed_fac.(c) <- 0.0

let advance st ~now =
  let rec go acc = function
    | ev :: rest when ev.time <= now ->
      apply st ev.kind;
      go (ev :: acc) rest
    | rest ->
      st.pending <- rest;
      List.rev acc
  in
  go [] st.pending

let apply_kind = apply

let link_factor st i = if st.link_down.(i) then 0.0 else st.link_deg.(i)
let link_degradation st i = st.link_deg.(i)
let link_max_connect st i = if st.link_down.(i) then 0 else st.link_maxcon.(i)
let speed_factor st c = st.speed_fac.(c)
let crashed st c = st.crashed_.(c)

let any_fault_active st =
  let p = st.platform in
  let faulty = ref false in
  Array.iteri (fun _ d -> if d then faulty := true) st.link_down;
  Array.iteri (fun _ f -> if f < 1.0 then faulty := true) st.link_deg;
  Array.iteri
    (fun i m ->
      if m <> (Platform.backbone p i).Platform.max_connect then faulty := true)
    st.link_maxcon;
  Array.iteri (fun _ f -> if f < 1.0 then faulty := true) st.speed_fac;
  Array.iteri (fun _ c -> if c then faulty := true) st.crashed_;
  !faulty

let degraded_platform st =
  let p = st.platform in
  let clusters =
    Array.init (Platform.num_clusters p) (fun k ->
        let c = Platform.cluster p k in
        if st.crashed_.(k) then { c with Platform.speed = 0.0; local_bw = 0.0 }
        else { c with Platform.speed = c.Platform.speed *. st.speed_fac.(k) })
  in
  let backbones =
    Array.init (Platform.num_backbones p) (fun i ->
        let b = Platform.backbone p i in
        if st.link_down.(i) then
          (* bw must stay positive for [Platform.with_capacities]; an
             unusable link is expressed as a zero connection cap, which
             Eq. 7e and the residual tracker both honour *)
          { b with Platform.max_connect = 0 }
        else
          {
            Platform.bw = b.Platform.bw *. st.link_deg.(i);
            max_connect = st.link_maxcon.(i);
          })
  in
  Platform.with_capacities p ~clusters ~backbones

let degraded_at p plan ~time =
  let st = start p plan in
  ignore (advance st ~now:time);
  degraded_platform st

let downtime p plan ~horizon =
  let st = start p plan in
  let total = ref 0.0 in
  let t = ref 0.0 in
  let rec go () =
    match next_time st with
    | Some tn when tn < horizon ->
      let tn = Float.max tn !t in
      if any_fault_active st then total := !total +. (tn -. !t);
      t := tn;
      ignore (advance st ~now:tn);
      go ()
    | _ ->
      if any_fault_active st then total := !total +. (horizon -. !t)
  in
  if horizon > 0.0 then go ();
  !total
