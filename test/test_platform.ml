(* Tests for Dls_platform: model invariants, routing, the Table 1
   generator, and the cluster-equivalence formulas. *)

module G = Dls_graph.Graph
module P = Dls_platform.Platform
module Gen = Dls_platform.Generator
module Equiv = Dls_platform.Equivalence
module Prng = Dls_util.Prng

(* A 3-cluster line platform: C0 -r0- l0 -r1(C1)- l1 -r2- C2. *)
let line3 () =
  let topology = G.path_graph 3 in
  let clusters =
    [| { P.speed = 100.0; local_bw = 40.0; router = 0 };
       { P.speed = 50.0; local_bw = 30.0; router = 1 };
       { P.speed = 80.0; local_bw = 20.0; router = 2 } |]
  in
  let backbones =
    [| { P.bw = 10.0; max_connect = 2 }; { P.bw = 5.0; max_connect = 3 } |]
  in
  P.make ~clusters ~topology ~backbones

let test_accessors () =
  let p = line3 () in
  Alcotest.(check int) "clusters" 3 (P.num_clusters p);
  Alcotest.(check int) "routers" 3 (P.num_routers p);
  Alcotest.(check int) "backbones" 2 (P.num_backbones p);
  Alcotest.(check (float 0.0)) "speed" 50.0 (P.speed p 1);
  Alcotest.(check (float 0.0)) "local bw" 20.0 (P.local_bw p 2);
  Alcotest.(check (float 0.0)) "total speed" 230.0 (P.total_speed p)

let test_routes () =
  let p = line3 () in
  Alcotest.(check (option (list int))) "0->1" (Some [ 0 ]) (P.route p 0 1);
  Alcotest.(check (option (list int))) "0->2" (Some [ 0; 1 ]) (P.route p 0 2);
  Alcotest.(check (option (list int))) "2->0" (Some [ 1; 0 ]) (P.route p 2 0);
  Alcotest.(check (option (list int))) "self" (Some []) (P.route p 1 1)

let test_route_bottleneck () =
  let p = line3 () in
  (match P.route_bottleneck p 0 2 with
   | Some b -> Alcotest.(check (float 0.0)) "min bw on path" 5.0 b
   | None -> Alcotest.fail "expected route");
  match P.route_bottleneck p 0 0 with
  | Some b -> Alcotest.(check bool) "self infinite" true (b = infinity)
  | None -> Alcotest.fail "expected self route"

let test_routes_through () =
  let p = line3 () in
  let through0 = P.routes_through p 0 in
  Alcotest.(check int) "pairs through l0" 4 (List.length through0);
  Alcotest.(check bool) "0->1 uses l0" true (List.mem (0, 1) through0);
  Alcotest.(check bool) "0->2 uses l0" true (List.mem (0, 2) through0);
  Alcotest.(check bool) "1->2 not via l0" false (List.mem (1, 2) through0)

let test_same_router_clusters () =
  let topology = G.path_graph 2 in
  let clusters =
    [| { P.speed = 1.0; local_bw = 1.0; router = 0 };
       { P.speed = 1.0; local_bw = 1.0; router = 0 };
       { P.speed = 1.0; local_bw = 1.0; router = 1 } |]
  in
  let backbones = [| { P.bw = 2.0; max_connect = 1 } |] in
  let p = P.make ~clusters ~topology ~backbones in
  Alcotest.(check (option (list int))) "co-located empty route" (Some [])
    (P.route p 0 1);
  match P.route_bottleneck p 0 1 with
  | Some b -> Alcotest.(check bool) "no backbone constraint" true (b = infinity)
  | None -> Alcotest.fail "expected route"

let test_disconnected_platform () =
  let topology = G.create ~n:2 ~edges:[] in
  let clusters =
    [| { P.speed = 1.0; local_bw = 1.0; router = 0 };
       { P.speed = 1.0; local_bw = 1.0; router = 1 } |]
  in
  let p = P.make ~clusters ~topology ~backbones:[||] in
  Alcotest.(check (option (list int))) "unreachable" None (P.route p 0 1);
  Alcotest.(check bool) "no bottleneck" true (P.route_bottleneck p 0 1 = None)

let test_route_overrides () =
  (* Force 0->2 through the long way in a triangle. *)
  let topology = G.cycle 3 in
  (* cycle 3 edges: e0=(0,1) e1=(1,2) e2=(2,0) *)
  let clusters =
    Array.init 3 (fun k -> { P.speed = 1.0; local_bw = 1.0; router = k })
  in
  let backbones = Array.make 3 { P.bw = 1.0; max_connect = 1 } in
  let p =
    P.make_with_routes ~clusters ~topology ~backbones ~routes:[ (0, 2, [ 0; 1 ]) ]
  in
  Alcotest.(check (option (list int))) "override used" (Some [ 0; 1 ]) (P.route p 0 2);
  Alcotest.(check (option (list int))) "others default" (Some [ 0 ]) (P.route p 0 1);
  Alcotest.check_raises "broken override rejected"
    (Invalid_argument "Platform: route does not reach the destination router")
    (fun () ->
      ignore
        (P.make_with_routes ~clusters ~topology ~backbones ~routes:[ (0, 2, [ 0 ]) ]))

let test_make_validation () =
  let topology = G.path_graph 2 in
  let backbones = [| { P.bw = 1.0; max_connect = 1 } |] in
  Alcotest.check_raises "negative speed"
    (Invalid_argument "Platform.make: cluster 0 has negative speed") (fun () ->
      ignore
        (P.make
           ~clusters:[| { P.speed = -1.0; local_bw = 1.0; router = 0 } |]
           ~topology ~backbones));
  Alcotest.check_raises "bad router"
    (Invalid_argument "Platform.make: cluster 0 references bad router") (fun () ->
      ignore
        (P.make
           ~clusters:[| { P.speed = 1.0; local_bw = 1.0; router = 5 } |]
           ~topology ~backbones));
  Alcotest.check_raises "bw/edge mismatch"
    (Invalid_argument "Platform.make: one backbone descriptor per topology edge required")
    (fun () ->
      ignore
        (P.make
           ~clusters:[| { P.speed = 1.0; local_bw = 1.0; router = 0 } |]
           ~topology ~backbones:[||]))

let test_with_capacities () =
  let p = line3 () in
  let clusters =
    Array.init 3 (fun k -> { (P.cluster p k) with P.speed = float_of_int k })
  in
  let backbones =
    [| { P.bw = 1.0; max_connect = 0 }; { P.bw = 2.0; max_connect = 7 } |]
  in
  let q = P.with_capacities p ~clusters ~backbones in
  Alcotest.(check (float 0.0)) "new speed" 2.0 (P.speed q 2);
  Alcotest.(check int) "new cap" 7 (P.backbone q 1).P.max_connect;
  Alcotest.(check (option (list int))) "route kept" (Some [ 0; 1 ]) (P.route q 0 2);
  Alcotest.(check (float 0.0)) "nominal untouched" 100.0 (P.speed p 0);
  Alcotest.check_raises "moved router"
    (Invalid_argument "Platform.with_capacities: cluster 1 moved router")
    (fun () ->
      let moved = Array.copy clusters in
      moved.(1) <- { (moved.(1)) with P.router = 0 };
      ignore (P.with_capacities p ~clusters:moved ~backbones));
  Alcotest.check_raises "cluster count"
    (Invalid_argument "Platform.with_capacities: cluster count changed")
    (fun () ->
      ignore (P.with_capacities p ~clusters:(Array.sub clusters 0 2) ~backbones));
  Alcotest.check_raises "backbone count"
    (Invalid_argument "Platform.make: one backbone descriptor per topology edge required")
    (fun () -> ignore (P.with_capacities p ~clusters ~backbones:[| backbones.(0) |]))

let test_routes_through_repeated_link () =
  (* An override that crosses l0 out and back lists (0, 1) once. *)
  let p =
    let q = line3 () in
    P.make_with_routes
      ~clusters:(Array.init 3 (P.cluster q))
      ~topology:(P.topology q)
      ~backbones:(Array.init 2 (P.backbone q))
      ~routes:[ (0, 1, [ 0; 0; 0 ]) ]
  in
  Alcotest.(check (list (pair int int))) "l0 pairs in order, once"
    [ (0, 1); (0, 2); (1, 0); (2, 0) ]
    (P.routes_through p 0);
  Alcotest.(check bool) "valid" true (P.validate p = Ok ())

(* ------------------------------------------------------------------ *)
(* Route layer properties                                              *)
(* ------------------------------------------------------------------ *)

(* Eq. 3's summation domain by a full K^2 scan of the route table: the
   reference the link index must reproduce. *)
let reference_routes_through p link =
  let kk = P.num_clusters p in
  let acc = ref [] in
  for k = kk - 1 downto 0 do
    for l = kk - 1 downto 0 do
      if k <> l then
        match P.route p k l with
        | Some links when List.mem link links -> acc := (k, l) :: !acc
        | Some _ | None -> ()
    done
  done;
  !acc

(* Random platforms: up to 8 routers with sparse, possibly parallel
   links (often disconnected) and up to 9 clusters placed on routers at
   random (so several may share one).  Returns the shortest-path
   platform and one whose overrides prefix some routes with a closed
   walk from the source router, which repeats links. *)
let random_platforms seed =
  let rng = Prng.create ~seed in
  let nr = Prng.int rng ~lo:1 ~hi:8 in
  let density = Prng.float rng ~lo:0.0 ~hi:0.6 in
  let edges = ref [] in
  for u = 0 to nr - 1 do
    for v = u + 1 to nr - 1 do
      if Prng.bool rng ~p:density then edges := (u, v) :: !edges;
      if Prng.bool rng ~p:0.1 then edges := (v, u) :: !edges
    done
  done;
  let topology = G.create ~n:nr ~edges:(List.rev !edges) in
  let kk = Prng.int rng ~lo:1 ~hi:9 in
  let clusters =
    Array.init kk (fun _ ->
        { P.speed = Prng.float rng ~lo:1.0 ~hi:100.0;
          local_bw = Prng.float rng ~lo:1.0 ~hi:50.0;
          router = Prng.int rng ~lo:0 ~hi:(nr - 1) })
  in
  let backbones =
    Array.init (G.num_edges topology) (fun _ ->
        { P.bw = Prng.float rng ~lo:1.0 ~hi:20.0;
          max_connect = Prng.int rng ~lo:0 ~hi:5 })
  in
  let base = P.make ~clusters ~topology ~backbones in
  let closed_walk src =
    let rec go u n acc =
      match G.neighbors topology u with
      | [] -> acc
      | nbrs when n > 0 ->
        let v, e = Prng.pick rng (Array.of_list nbrs) in
        go v (n - 1) (e :: acc)
      | _ -> acc
    in
    let out = List.rev (go src (Prng.int rng ~lo:1 ~hi:3) []) in
    out @ List.rev out
  in
  let overrides = ref [] in
  for k = 0 to kk - 1 do
    for l = 0 to kk - 1 do
      match P.route base k l with
      | Some links when k <> l && Prng.bool rng ~p:0.3 ->
        overrides := (k, l, closed_walk clusters.(k).P.router @ links) :: !overrides
      | _ -> ()
    done
  done;
  (base, P.make_with_routes ~clusters ~topology ~backbones ~routes:!overrides)

let routes_through_all p =
  List.init (P.num_backbones p) (P.routes_through p)

let route_table p =
  let kk = P.num_clusters p in
  List.init kk (fun k -> List.init kk (P.route p k))

let prop_routes_through_matches_scan =
  QCheck2.Test.make ~name:"link index equals a K^2 route scan" ~count:300
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let base, over = random_platforms seed in
      List.for_all
        (fun p ->
          P.validate p = Ok ()
          && routes_through_all p
             = List.init (P.num_backbones p) (reference_routes_through p))
        [ base; over ])

let prop_per_source_routes_match_per_pair =
  QCheck2.Test.make ~name:"per-source routes equal per-pair shortest paths"
    ~count:300
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let p, _ = random_platforms seed in
      let kk = P.num_clusters p in
      let router k = (P.cluster p k).P.router in
      List.for_all
        (fun k ->
          List.for_all
            (fun l ->
              let expected =
                if k = l then Some []
                else
                  Option.map snd
                    (G.shortest_path (P.topology p) ~src:(router k) ~dst:(router l))
              in
              P.route p k l = expected)
            (List.init kk Fun.id))
        (List.init kk Fun.id))

let prop_with_capacities_keeps_routes =
  QCheck2.Test.make ~name:"capacity-only rebuild keeps routes and index"
    ~count:200
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let _, p = random_platforms seed in
      let rng = Prng.create ~seed:(seed + 1) in
      let clusters =
        Array.init (P.num_clusters p) (fun k ->
            { (P.cluster p k) with P.speed = Prng.float rng ~lo:0.0 ~hi:10.0 })
      in
      let backbones =
        Array.init (P.num_backbones p) (fun i ->
            { (P.backbone p i) with P.max_connect = Prng.int rng ~lo:0 ~hi:3 })
      in
      let q = P.with_capacities p ~clusters ~backbones in
      let capacities_swapped =
        List.for_all (fun k -> P.cluster q k = clusters.(k))
          (List.init (P.num_clusters q) Fun.id)
        && List.for_all (fun i -> P.backbone q i = backbones.(i))
             (List.init (P.num_backbones q) Fun.id)
      in
      let moved_rejected =
        P.num_routers p < 2
        ||
        let moved = Array.copy clusters in
        let c = moved.(0) in
        moved.(0) <- { c with P.router = (c.P.router + 1) mod P.num_routers p };
        match P.with_capacities p ~clusters:moved ~backbones with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      P.validate q = Ok ()
      && route_table q = route_table p
      && routes_through_all q = routes_through_all p
      && capacities_swapped && moved_rejected)

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let test_generator_deterministic () =
  let gen seed =
    let rng = Prng.create ~seed in
    Gen.generate rng Gen.default_params
  in
  let p1 = gen 42 and p2 = gen 42 in
  Alcotest.(check int) "same backbone count" (P.num_backbones p1) (P.num_backbones p2);
  Alcotest.(check (float 0.0)) "same g_0" (P.local_bw p1 0) (P.local_bw p2 0);
  if P.num_backbones p1 > 0 then
    Alcotest.(check (float 0.0)) "same bw_0" (P.backbone p1 0).P.bw
      (P.backbone p2 0).P.bw

let test_table1_grid_size () =
  (* 10 * 8 * 4 * 4 * 9 * 10 = 115,200 settings. *)
  Alcotest.(check int) "grid size" 115_200 (List.length (Gen.table1_grid ()))

let prop_generated_platform_valid =
  QCheck2.Test.make ~name:"generated platforms pass validation" ~count:60
    QCheck2.Gen.(pair (int_range 1 30) (int_range 0 1_000_000))
    (fun (k, seed) ->
      let rng = Prng.create ~seed in
      let p =
        Gen.generate rng
          { Gen.default_params with k; connectivity = 0.3; heterogeneity = 0.6 }
      in
      P.validate p = Ok ())

let prop_generated_params_in_range =
  QCheck2.Test.make ~name:"sampled parameters stay within heterogeneity band"
    ~count:40
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let pr = { Gen.default_params with k = 12; heterogeneity = 0.4 } in
      let p = Gen.generate rng pr in
      let in_band v mean = v >= mean *. 0.6 -. 1e-9 && v <= mean *. 1.4 +. 1e-9 in
      let clusters_ok =
        List.for_all
          (fun k -> in_band (P.local_bw p k) pr.Gen.mean_g && P.speed p k = 100.0)
          (List.init (P.num_clusters p) Fun.id)
      in
      let backbones_ok =
        List.for_all
          (fun i ->
            let b = P.backbone p i in
            in_band b.P.bw pr.Gen.mean_bw
            && b.P.max_connect >= 1
            && float_of_int b.P.max_connect <= (pr.Gen.mean_maxcon *. 1.4) +. 1.0)
          (List.init (P.num_backbones p) Fun.id)
      in
      clusters_ok && backbones_ok)

let prop_generated_all_pairs_routed =
  QCheck2.Test.make ~name:"every cluster pair is routed after generation" ~count:40
    QCheck2.Gen.(pair (int_range 2 25) (int_range 0 1_000_000))
    (fun (k, seed) ->
      let rng = Prng.create ~seed in
      let p =
        Gen.generate rng { Gen.default_params with k; connectivity = 0.1 }
      in
      let ok = ref true in
      for a = 0 to k - 1 do
        for b = 0 to k - 1 do
          if P.route p a b = None then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

module Pio = Dls_platform.Platform_io

let platforms_equal a b =
  P.num_clusters a = P.num_clusters b
  && P.num_routers a = P.num_routers b
  && P.num_backbones a = P.num_backbones b
  && List.for_all
       (fun k ->
         P.cluster a k = P.cluster b k
         && List.for_all (fun l -> P.route a k l = P.route b k l)
              (List.init (P.num_clusters a) Fun.id))
       (List.init (P.num_clusters a) Fun.id)
  && List.for_all
       (fun i ->
         P.backbone a i = P.backbone b i
         && G.endpoints (P.topology a) i = G.endpoints (P.topology b) i)
       (List.init (P.num_backbones a) Fun.id)

let test_io_roundtrip_line3 () =
  let p = line3 () in
  match Pio.of_string (Pio.to_string p) with
  | Ok p' -> Alcotest.(check bool) "roundtrip" true (platforms_equal p p')
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_io_preserves_route_overrides () =
  let topology = G.cycle 3 in
  let clusters =
    Array.init 3 (fun k -> { P.speed = 1.0; local_bw = 1.0; router = k })
  in
  let backbones = Array.make 3 { P.bw = 1.0; max_connect = 1 } in
  let p =
    P.make_with_routes ~clusters ~topology ~backbones ~routes:[ (0, 2, [ 0; 1 ]) ]
  in
  match Pio.of_string (Pio.to_string p) with
  | Ok p' ->
    Alcotest.(check (option (list int))) "override preserved" (Some [ 0; 1 ])
      (P.route p' 0 2)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_io_parse_errors () =
  let has_sub msg fragment =
    let n = String.length msg and m = String.length fragment in
    let rec go i = i + m <= n && (String.sub msg i m = fragment || go (i + 1)) in
    m = 0 || go 0
  in
  let check text fragment =
    match Pio.of_string text with
    | Ok _ -> Alcotest.failf "expected parse error for %S" text
    | Error msg ->
      Alcotest.(check bool) (text ^ " -> " ^ msg) true (has_sub msg fragment)
  in
  check "nonsense 1\n" "unknown directive";
  check "dls-platform 2\n" "unsupported";
  check "dls-platform 1\ncluster a b c\n" "bad cluster";
  check "dls-platform 1\ncluster 1 1 0\n" "routers"

let test_io_parse_error_positions () =
  (* Semantic errors — previously bare [Invalid_argument]s escaping from
     Platform.make_with_routes — must now name the offending line. *)
  let check_line text line fragment =
    match Pio.parse text with
    | Ok _ -> Alcotest.failf "expected parse error for %S" text
    | Error e ->
      Alcotest.(check int) (fragment ^ ": line") line e.Pio.line;
      let msg = Format.asprintf "%a" Pio.pp_parse_error e in
      let has_sub =
        let n = String.length msg and m = String.length fragment in
        let rec go i = i + m <= n && (String.sub msg i m = fragment || go (i + 1)) in
        m = 0 || go 0
      in
      Alcotest.(check bool) (text ^ " -> " ^ msg) true has_sub
  in
  (* Cluster pointing at a router that does not exist: line 3. *)
  check_line "dls-platform 1\nrouters 1\ncluster 1 1 5\n" 3 "router 5";
  (* Backbone with an out-of-range endpoint: line 4. *)
  check_line
    "dls-platform 1\nrouters 2\ncluster 1 1 0\ncluster 1 1 9\n"
    4 "router 9";
  check_line
    "dls-platform 1\nrouters 2\ncluster 1 1 0\ncluster 1 1 1\nbackbone 0 7 1 1\n"
    5 "endpoints";
  check_line
    "dls-platform 1\nrouters 2\ncluster 1 1 0\ncluster 1 1 1\nbackbone 0 1 0 1\n"
    5 "positive";
  (* A route whose links do not reach the destination router: line 6. *)
  check_line
    "dls-platform 1\nrouters 3\ncluster 1 1 0\ncluster 1 1 2\nbackbone 0 1 1 1\nroute 0 1 0\n"
    6 "route";
  (* Lexical errors still carry their line. *)
  check_line "dls-platform 1\nrouters 1\ncluster a b c\n" 3 "bad cluster";
  (* Errors with no single source line report line 0, and the renderer
     drops the "line" prefix. *)
  (match Pio.parse "dls-platform 1\ncluster 1 1 0\n" with
   | Ok _ -> Alcotest.fail "expected missing-routers error"
   | Error e ->
     Alcotest.(check int) "no line" 0 e.Pio.line;
     let msg = Format.asprintf "%a" Pio.pp_parse_error e in
     Alcotest.(check bool) "no line prefix" false
       (String.length msg >= 4 && String.sub msg 0 4 = "line"));
  (* of_string renders errors through the same pretty-printer. *)
  match Pio.of_string "dls-platform 1\nrouters 1\ncluster 1 1 5\n" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error msg ->
    Alcotest.(check bool) "string form has the line" true
      (String.length msg >= 7 && String.sub msg 0 7 = "line 3:")

let test_io_comments_and_blanks () =
  let text =
    "# a comment\n\ndls-platform 1\nrouters 1\n# another\ncluster 5 6 0\n"
  in
  match Pio.of_string text with
  | Ok p ->
    Alcotest.(check int) "one cluster" 1 (P.num_clusters p);
    Alcotest.(check (float 0.0)) "speed" 5.0 (P.speed p 0)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_io_file_roundtrip () =
  let p = line3 () in
  let path = Filename.temp_file "dls_platform" ".txt" in
  Pio.save ~path p;
  let result = Pio.load ~path in
  Sys.remove path;
  match result with
  | Ok p' -> Alcotest.(check bool) "file roundtrip" true (platforms_equal p p')
  | Error msg -> Alcotest.failf "load failed: %s" msg

let test_io_shipped_assets_parse () =
  (* The .dls files shipped under examples/platforms must stay loadable. *)
  let dir = "../examples/platforms" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".dls")
  in
  Alcotest.(check bool) "at least one asset" true (List.length files >= 1);
  List.iter
    (fun f ->
      match Pio.load ~path:(Filename.concat dir f) with
      | Ok p -> begin
        match P.validate p with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "%s invalid: %s" f msg
      end
      | Error msg -> Alcotest.failf "%s unparseable: %s" f msg)
    files

let prop_io_roundtrip_generated =
  QCheck2.Test.make ~name:"serialization roundtrips generated platforms" ~count:40
    QCheck2.Gen.(pair (int_range 1 15) (int_range 0 100_000))
    (fun (k, seed) ->
      let rng = Prng.create ~seed in
      let p = Gen.generate rng { Gen.default_params with k } in
      match Pio.of_string (Pio.to_string p) with
      | Ok p' -> platforms_equal p p'
      | Error _ -> false)

let has_sub msg fragment =
  let n = String.length msg and m = String.length fragment in
  let rec go i = i + m <= n && (String.sub msg i m = fragment || go (i + 1)) in
  m = 0 || go 0

let test_dot_export () =
  let dot = Dls_platform.Platform_dot.to_dot (line3 ()) in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) ("contains " ^ fragment) true (has_sub dot fragment))
    [ "graph platform {"; "c0 [shape=box"; "r2 [shape=circle";
      "r0 -- r1 [label=\"l0 bw=10 cap=2\"]"; "c2 -- r2 [style=dashed]" ]

let test_speed_heterogeneity () =
  let rng = Prng.create ~seed:77 in
  let p =
    Gen.generate rng { Gen.default_params with k = 10; speed_heterogeneity = 0.5 }
  in
  let speeds = List.init 10 (P.speed p) in
  Alcotest.(check bool) "speeds vary" true
    (List.exists (fun s -> Float.abs (s -. 100.0) > 1.0) speeds);
  Alcotest.(check bool) "within band" true
    (List.for_all (fun s -> s >= 50.0 -. 1e-9 && s <= 150.0 +. 1e-9) speeds);
  Alcotest.check_raises "bad band"
    (Invalid_argument "Generator.generate: speed_heterogeneity must be in [0, 1)")
    (fun () ->
      ignore
        (Gen.generate rng { Gen.default_params with speed_heterogeneity = 1.0 }))

(* ------------------------------------------------------------------ *)
(* Single-round divisible-load distribution                            *)
(* ------------------------------------------------------------------ *)

module SR = Dls_platform.Single_round

let sr_workers () =
  [| { SR.bandwidth = 10.0; speed = 3.0 };
     { SR.bandwidth = 4.0; speed = 5.0 };
     { SR.bandwidth = 2.0; speed = 2.0 } |]

let test_single_round_equal_finish () =
  let plan = SR.distribute ~load:100.0 (sr_workers ()) in
  Array.iter
    (fun f -> Alcotest.(check (float 1e-9)) "equal finish" plan.SR.makespan f)
    plan.SR.finish_times;
  (* The whole load is distributed. *)
  let total = List.fold_left (fun acc (_, a) -> acc +. a) 0.0 plan.SR.chunks in
  Alcotest.(check (float 1e-9)) "total load" 100.0 total

let test_single_round_single_worker_closed_form () =
  (* One worker: makespan = load * (1/bw + 1/s). *)
  let plan = SR.distribute ~load:10.0 [| { SR.bandwidth = 5.0; speed = 2.0 } |] in
  Alcotest.(check (float 1e-9)) "closed form" (10.0 *. ((1.0 /. 5.0) +. 0.5))
    plan.SR.makespan

let test_single_round_master_helps () =
  let workers = sr_workers () in
  let without = SR.distribute ~load:100.0 workers in
  let with_master = SR.distribute ~master_speed:4.0 ~load:100.0 workers in
  Alcotest.(check bool) "master participation shortens" true
    (with_master.SR.makespan < without.SR.makespan)

let test_multi_installment_improves () =
  let workers = sr_workers () in
  let single = SR.distribute ~load:100.0 workers in
  let prev = ref single.SR.makespan in
  List.iter
    (fun rounds ->
      let plan = SR.multi_installment ~load:100.0 ~rounds workers in
      Alcotest.(check bool)
        (Printf.sprintf "rounds %d no worse" rounds)
        true
        (plan.SR.makespan <= !prev +. 1e-9);
      prev := plan.SR.makespan)
    [ 1; 2; 4; 8 ]

let test_single_round_validation () =
  Alcotest.check_raises "no workers" (Invalid_argument "Single_round: no workers")
    (fun () -> ignore (SR.distribute ~load:1.0 [||]));
  Alcotest.check_raises "bad load"
    (Invalid_argument "Single_round.distribute: non-positive load") (fun () ->
      ignore (SR.distribute ~load:0.0 (sr_workers ())));
  Alcotest.check_raises "master chunk needs speed"
    (Invalid_argument "Single_round.simulate: master chunk without master speed")
    (fun () -> ignore (SR.simulate (sr_workers ()) [ (-1, 1.0) ]))

let prop_single_round_simulate_consistent =
  QCheck2.Test.make ~name:"single-round plans re-simulate to the same makespan"
    ~count:100
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 6)
           (pair (float_range 0.5 20.0) (float_range 0.5 20.0)))
        (float_range 1.0 500.0))
    (fun (specs, load) ->
      let workers =
        Array.of_list (List.map (fun (bw, s) -> { SR.bandwidth = bw; speed = s }) specs)
      in
      let plan = SR.distribute ~load workers in
      let again = SR.simulate workers plan.SR.chunks in
      Float.abs (plan.SR.makespan -. again.SR.makespan) < 1e-9
      && Array.for_all2
           (fun a b -> Float.abs (a -. b) < 1e-6 *. Float.max 1.0 plan.SR.makespan)
           plan.SR.finish_times again.SR.finish_times
      && Array.for_all
           (fun f -> Float.abs (f -. plan.SR.makespan) < 1e-6 *. plan.SR.makespan)
           plan.SR.finish_times)

(* ------------------------------------------------------------------ *)
(* Equivalence                                                         *)
(* ------------------------------------------------------------------ *)

let test_multiport_star () =
  (* Root 10, workers: (bw 5, speed 3) -> 3; (bw 2, speed 9) -> 2. *)
  let n = Equiv.star ~root:10.0 ~workers:[ (5.0, 3.0); (2.0, 9.0) ] in
  Alcotest.(check (float 1e-9)) "uncapped" 15.0 (Equiv.multiport_speed n);
  Alcotest.(check (float 1e-9)) "egress capped" 14.0
    (Equiv.multiport_speed ~egress_cap:4.0 n)

let test_multiport_tree () =
  (* Two-level tree: root 1; child (bw 10, compute 2) with its own leaf
     (bw 1, speed 100) -> child capacity 2 + 1 = 3; total 1 + min(10,3). *)
  let child = { Equiv.compute = 2.0; children = [ (1.0, Equiv.leaf 100.0) ] } in
  let root = { Equiv.compute = 1.0; children = [ (10.0, child) ] } in
  Alcotest.(check (float 1e-9)) "tree" 4.0 (Equiv.multiport_speed root)

let test_one_port_star () =
  (* Two fast links, slow workers: both saturate within the period.
     Root 0; workers (bw 10, s 1) x2: t_i = 0.1 each -> total 2. *)
  let n = Equiv.star ~root:0.0 ~workers:[ (10.0, 1.0); (10.0, 1.0) ] in
  Alcotest.(check (float 1e-9)) "both saturated" 2.0 (Equiv.one_port_speed n);
  (* Port-bound: one worker with bw 2 and huge speed -> 2. *)
  let n2 = Equiv.star ~root:1.0 ~workers:[ (2.0, 1000.0) ] in
  Alcotest.(check (float 1e-9)) "port bound" 3.0 (Equiv.one_port_speed n2);
  (* Greedy order matters: (bw 4, s 2) then (bw 1, s 10):
     t1 = 0.5 gives 2; remaining 0.5 at bw 1 gives 0.5 -> 2.5. *)
  let n3 = Equiv.star ~root:0.0 ~workers:[ (1.0, 10.0); (4.0, 2.0) ] in
  Alcotest.(check (float 1e-9)) "greedy order" 2.5 (Equiv.one_port_speed n3)

let test_one_port_leq_multiport () =
  let n =
    Equiv.star ~root:2.0 ~workers:[ (3.0, 4.0); (5.0, 1.0); (2.0, 2.0) ]
  in
  Alcotest.(check bool) "one-port <= multiport" true
    (Equiv.one_port_speed n <= Equiv.multiport_speed n +. 1e-9)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "dls_platform"
    [ ( "model",
        [ Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "routes" `Quick test_routes;
          Alcotest.test_case "route bottleneck" `Quick test_route_bottleneck;
          Alcotest.test_case "routes through link" `Quick test_routes_through;
          Alcotest.test_case "same-router clusters" `Quick test_same_router_clusters;
          Alcotest.test_case "disconnected" `Quick test_disconnected_platform;
          Alcotest.test_case "route overrides" `Quick test_route_overrides;
          Alcotest.test_case "validation" `Quick test_make_validation;
          Alcotest.test_case "capacity-only rebuild" `Quick test_with_capacities;
          Alcotest.test_case "repeated link listed once" `Quick
            test_routes_through_repeated_link ] );
      qsuite "route-prop"
        [ prop_routes_through_matches_scan; prop_per_source_routes_match_per_pair;
          prop_with_capacities_keeps_routes ];
      ( "generator",
        [ Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "table1 grid size" `Quick test_table1_grid_size ] );
      qsuite "generator-prop"
        [ prop_generated_platform_valid; prop_generated_params_in_range;
          prop_generated_all_pairs_routed ];
      ( "serialization",
        [ Alcotest.test_case "roundtrip line3" `Quick test_io_roundtrip_line3;
          Alcotest.test_case "route overrides" `Quick test_io_preserves_route_overrides;
          Alcotest.test_case "parse errors" `Quick test_io_parse_errors;
          Alcotest.test_case "parse error positions" `Quick
            test_io_parse_error_positions;
          Alcotest.test_case "comments and blanks" `Quick test_io_comments_and_blanks;
          Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
          Alcotest.test_case "shipped assets parse" `Quick
            test_io_shipped_assets_parse ] );
      qsuite "serialization-prop" [ prop_io_roundtrip_generated ];
      ( "rendering",
        [ Alcotest.test_case "dot export" `Quick test_dot_export;
          Alcotest.test_case "speed heterogeneity" `Quick test_speed_heterogeneity ] );
      ( "single-round",
        [ Alcotest.test_case "equal finish" `Quick test_single_round_equal_finish;
          Alcotest.test_case "closed form" `Quick
            test_single_round_single_worker_closed_form;
          Alcotest.test_case "master helps" `Quick test_single_round_master_helps;
          Alcotest.test_case "multi-installment improves" `Quick
            test_multi_installment_improves;
          Alcotest.test_case "validation" `Quick test_single_round_validation ] );
      qsuite "single-round-prop" [ prop_single_round_simulate_consistent ];
      ( "equivalence",
        [ Alcotest.test_case "multiport star" `Quick test_multiport_star;
          Alcotest.test_case "multiport tree" `Quick test_multiport_tree;
          Alcotest.test_case "one-port star" `Quick test_one_port_star;
          Alcotest.test_case "one-port <= multiport" `Quick test_one_port_leq_multiport ] ) ]
