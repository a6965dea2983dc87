(* Tests of the benchmark itself: seeded inputs, the metric vocabulary,
   and the output oracles. None of them runs a workload. *)

open Perfbench

let read path = In_channel.with_open_bin path In_channel.input_all

(* ---------------- generators ---------------- *)

let describe_deck seed deck = List.map Gen.describe (Gen.serve_deck ~seed ~deck)

let test_same_seed_same_inputs () =
  List.iter
    (fun seed ->
      Alcotest.(check (list string))
        "sweep order"
        (Gen.sweep_order ~seed ~pass:2)
        (Gen.sweep_order ~seed ~pass:2);
      Alcotest.(check (list string))
        "explore grid" (Gen.explore_grid ~seed) (Gen.explore_grid ~seed);
      Alcotest.(check (list string))
        "serve deck" (describe_deck seed 3) (describe_deck seed 3))
    [ 0; 1; 7; 123456 ]

let test_seeds_vary_inputs () =
  let distinct f = List.length (List.sort_uniq compare (List.map f [ 1; 2; 3; 4; 5 ])) in
  Alcotest.(check bool) "sweep orders differ" true
    (distinct (fun seed -> Gen.sweep_order ~seed ~pass:0) > 1);
  Alcotest.(check bool) "grids differ" true
    (distinct (fun seed -> Gen.explore_grid ~seed) > 1);
  Alcotest.(check bool) "decks differ" true
    (distinct (fun seed -> describe_deck seed 0) > 1)

(* The draws vary order and shape, never the amount of work. *)
let test_work_per_seed_is_constant () =
  List.iter
    (fun seed ->
      Alcotest.(check (list string))
        "every program, once"
        (List.sort compare Workloads.Registry.names)
        (List.sort compare (Gen.sweep_order ~seed ~pass:0));
      Alcotest.(check int)
        "3 x 3 grid plus the default"
        10
        (List.length
           (Jrpm.Explore.configs_of_grid
              (Jrpm.Explore.parse_grid (Gen.explore_grid ~seed))));
      (* explores differ only in which narrow grid they carry *)
      let composition seed deck =
        List.sort compare
          (List.map
             (function
               | Gen.Explore _ -> "explore" | r -> Gen.describe r)
             (Gen.serve_deck ~seed ~deck))
      in
      Alcotest.(check (list string))
        "deck composition" (composition 0 0) (composition seed 5))
    [ 1; 2; 99 ]

(* ---------------- metric vocabulary ---------------- *)

let test_metric_limits () =
  Alcotest.(check (list string))
    "end-to-end" [] (Report.validate ~max:16 Report.end_to_end);
  Alcotest.(check (list string))
    "per-layer" [] (Report.validate ~max:128 Report.per_layer);
  List.iter
    (fun name ->
      Alcotest.(check bool) ("rejects " ^ name) false (Report.name_ok name))
    [ ""; "_lead"; "has space"; "semi;colon"; String.make 65 'a' ];
  Alcotest.(check bool) "accepts a dotted name" true (Report.name_ok "tls_sim.s");
  Alcotest.(check bool) "rejects a long unit" false
    (Report.unit_ok (String.make 17 's'));
  Alcotest.(check bool) "rejects a duplicate" true
    (Report.validate ~max:16 [ Report.m "a" "s"; Report.m "a" "s" ] <> []);
  Alcotest.(check bool) "rejects too many" true
    (Report.validate ~max:1 [ Report.m "a" "s"; Report.m "b" "s" ] <> [])

let test_benchmark_json_agrees () =
  let json = Obs.Json.parse_exn (read "../../BENCHMARK.json") in
  let listed key =
    List.map
      (fun m ->
        let field k =
          Option.get (Option.bind (Obs.Json.member k m) Obs.Json.to_string_opt)
        in
        (field "name", field "unit"))
      (Option.get (Option.bind (Obs.Json.member key json) Obs.Json.to_list))
  in
  let ours l = List.map (fun { Report.name; unit_ } -> (name, unit_)) l in
  Alcotest.(check (list (pair string string)))
    "end_to_end" (ours Report.end_to_end) (listed "end_to_end");
  Alcotest.(check (list (pair string string)))
    "per_layer" (ours Report.per_layer) (listed "per_layer")

let test_tail () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  let v, pct, n = Report.tail xs in
  Alcotest.(check (float 0.)) "ten samples beyond" 90. v;
  Alcotest.(check (float 1e-9)) "percentile" 90. pct;
  Alcotest.(check int) "count" 100 n;
  let v, _, _ = Report.tail [ 3.; 1.; 2. ] in
  Alcotest.(check (float 0.)) "few samples: the maximum" 3. v

(* ---------------- oracles ---------------- *)

let baseline () = Oracle.load_baseline ~path:"../../test/baseline_sweep_summaries.json" ()

let summary baseline name =
  Jrpm.Report_summary.of_json (Obs.Json.parse_exn (Hashtbl.find baseline name))

let is_error = function Ok () -> false | Error _ -> true

let test_oracle_catches_corrupt_summary () =
  let b = baseline () in
  let s = summary b "Huffman" in
  Alcotest.(check bool) "baseline summary passes" false
    (is_error (Oracle.check_summary b s));
  Alcotest.(check bool) "one corrupted field fails" true
    (is_error
       (Oracle.check_summary b
          { s with Jrpm.Report_summary.tls_cycles = s.tls_cycles + 1 }));
  Alcotest.(check bool) "mismatched TLS output fails" true
    (is_error
       (Oracle.check_summary b { s with Jrpm.Report_summary.outputs_match = false }))

let response result =
  {
    Jrpm.Daemon.rsp_id = Obs.Json.Int 0;
    rsp = result;
    elapsed_s = 0.1;
    queue_depth = 0;
    tasks = 1;
  }

let test_oracle_catches_corrupt_response () =
  let b = baseline () in
  let s = summary b "fft" in
  let profile s = Obs.Json.Obj [ ("summary", Jrpm.Report_summary.to_json s) ] in
  let expected = Oracle.expect_profile s in
  Alcotest.(check bool) "faithful profile passes" false
    (is_error (Oracle.check_response expected (response (Ok (profile s)))));
  Alcotest.(check bool) "corrupted profile fails" true
    (is_error
       (Oracle.check_response expected
          (response
             (Ok
                (profile
                   { s with Jrpm.Report_summary.predicted_speedup =
                       s.predicted_speedup +. 1e-9 })))));
  Alcotest.(check bool) "an error response fails" true
    (is_error (Oracle.check_response expected (response (Error "boom"))));
  let outcome =
    {
      Jrpm.Replay.name = "fft";
      recorded = s;
      replayed = s;
      chosen_stls = [];
      matches = true;
      events = 1;
      record_bytes = 1;
      reference_bytes = 1;
      elapsed_s = 0.;
    }
  in
  let replay ~matches s =
    Obs.Json.Obj
      [
        ("matches", Obs.Json.Bool matches);
        ("summaries", Obs.Json.List [ Jrpm.Report_summary.to_json s ]);
      ]
  in
  let expected = Oracle.expect_replay [ outcome ] in
  Alcotest.(check bool) "faithful replay passes" false
    (is_error
       (Oracle.check_response expected (response (Ok (replay ~matches:true s)))));
  Alcotest.(check bool) "corrupted replay fails" true
    (is_error
       (Oracle.check_response expected
          (response
             (Ok
                (replay ~matches:true
                   { s with Jrpm.Report_summary.selected_stls = s.selected_stls + 1 })))));
  Alcotest.(check bool) "a non-matching replay fails" true
    (is_error
       (Oracle.check_response expected (response (Ok (replay ~matches:false s)))))

let () =
  Alcotest.run "perfbench"
    [
      ( "gen",
        [
          Alcotest.test_case "same seed, same inputs" `Quick
            test_same_seed_same_inputs;
          Alcotest.test_case "seeds vary inputs" `Quick test_seeds_vary_inputs;
          Alcotest.test_case "work per seed is constant" `Quick
            test_work_per_seed_is_constant;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "name and count limits" `Quick test_metric_limits;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick
            test_benchmark_json_agrees;
          Alcotest.test_case "tail percentile" `Quick test_tail;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "corrupted summary" `Quick
            test_oracle_catches_corrupt_summary;
          Alcotest.test_case "corrupted daemon response" `Quick
            test_oracle_catches_corrupt_response;
        ] );
    ]
