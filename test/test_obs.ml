(* Dyn_obs: histogram bucket boundaries, merge-at-scrape correctness
   under domain concurrency, trace-export validity and golden bytes,
   the timed-span helper, the row codec and table, and the warm=cold
   payload contract with telemetry switched on. *)

module R = Dyn_obs.Registry
module T = Dyn_obs.Trace
module J = Dyn_util.Jsonw
module Cache = Serve_api.Cache
module Wire = Serve_api.Wire
module Jobs = Serve_api.Jobs

(* --- histogram buckets --- *)

let test_bucket_boundaries () =
  let cases =
    [
      (* powers of two from 1ns to >1s land on consecutive buckets *)
      (0, 0); (1, 0); (2, 1); (3, 1); (4, 2); (7, 2); (8, 3);
      (1023, 9); (1024, 10);
      (1_000_000, 19); (* ~1ms: 2^19 = 524288 <= 1e6 < 2^20 *)
      ((1 lsl 30) - 1, 29);
      (1 lsl 30, 30);
      ((1 lsl 31) - 1, 30);
      (1 lsl 31, 31); (* > ~2.1s: the ">1s" overflow bucket *)
      (max_int, 31);
    ]
  in
  List.iter
    (fun (ns, want) ->
      Alcotest.(check int) (Printf.sprintf "bucket_of_ns %d" ns) want
        (R.bucket_of_ns ns))
    cases;
  Alcotest.(check int) "n_buckets" 32 R.n_buckets

let test_histogram_view () =
  let h = R.histogram "t.hist.view" in
  (* one observation per power-of-two bucket, 0..9 *)
  for i = 0 to 9 do
    R.observe h (1 lsl i)
  done;
  let hv = R.histogram_view h in
  Alcotest.(check int) "count" 10 hv.R.hv_count;
  Alcotest.(check int) "sum" 1023 hv.R.hv_sum_ns;
  for i = 0 to 9 do
    Alcotest.(check int) (Printf.sprintf "bucket %d" i) 1 hv.R.hv_buckets.(i)
  done;
  (* negative observations clamp into bucket 0 rather than vanishing *)
  R.observe h (-5);
  let hv = R.histogram_view h in
  Alcotest.(check int) "clamped count" 11 hv.R.hv_count;
  Alcotest.(check int) "clamped bucket" 2 hv.R.hv_buckets.(0)

let test_quantiles () =
  let h = R.histogram "t.hist.quantile" in
  (* 90 fast (≈1us) + 10 slow (≈1ms) observations *)
  for _ = 1 to 90 do
    R.observe h 1024
  done;
  for _ = 1 to 10 do
    R.observe h 1_000_000
  done;
  let hv = R.histogram_view h in
  Alcotest.(check int) "p50 = fast bucket bound" ((1 lsl 11) - 1)
    (R.approx_quantile_ns hv 0.5);
  Alcotest.(check int) "p99 = slow bucket bound" ((1 lsl 20) - 1)
    (R.approx_quantile_ns hv 0.99);
  let overflow = R.histogram "t.hist.overflow" in
  R.observe overflow max_int;
  Alcotest.(check int) "overflow quantile" max_int
    (R.approx_quantile_ns (R.histogram_view overflow) 0.5)

(* --- merge-at-scrape under domain concurrency --- *)

let hammer n_domains f =
  List.init n_domains (fun i -> Domain.spawn (fun () -> f i))
  |> List.iter Domain.join

let test_counter_merge () =
  let c = R.counter "t.counter.merge" in
  hammer 4 (fun _ ->
      for _ = 1 to 10_000 do
        R.incr c
      done;
      for _ = 1 to 100 do
        R.incr ~by:5 c
      done);
  Alcotest.(check int) "exact total" (4 * (10_000 + 500)) (R.counter_value c)

let test_histogram_merge () =
  let h = R.histogram "t.hist.merge" in
  hammer 4 (fun _ ->
      for i = 0 to 9 do
        for _ = 1 to 100 do
          R.observe h (1 lsl i)
        done
      done);
  let hv = R.histogram_view h in
  Alcotest.(check int) "count" 4_000 hv.R.hv_count;
  Alcotest.(check int) "sum" (4 * 100 * 1023) hv.R.hv_sum_ns;
  for i = 0 to 9 do
    Alcotest.(check int) (Printf.sprintf "bucket %d" i) 400 hv.R.hv_buckets.(i)
  done

let test_gauge_balance () =
  let g = R.gauge "t.gauge.balance" in
  hammer 4 (fun _ ->
      for _ = 1 to 10_000 do
        R.add g 1;
        R.add g (-1)
      done);
  Alcotest.(check int) "paired add/sub nets zero" 0 (R.gauge_value g)

let test_enabled_switch () =
  let c = R.counter "t.counter.switch" in
  let g = R.gauge "t.gauge.switch" in
  let h = R.histogram "t.hist.switch" in
  let before = R.counter_value c in
  R.set_enabled false;
  R.incr c;
  R.observe h 42;
  R.add g 7;
  R.set_enabled true;
  Alcotest.(check int) "counter frozen" before (R.counter_value c);
  Alcotest.(check int) "histogram frozen" 0 (R.histogram_view h).R.hv_count;
  (* gauges track state, not rate: they must survive the toggle *)
  Alcotest.(check int) "gauge live" 7 (R.gauge_value g)

let test_kind_clash () =
  let _ = R.counter "t.kind.clash" in
  (match R.histogram "t.kind.clash" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "same name, different kind should raise");
  (* same name, same kind: the one handle comes back *)
  let a = R.counter "t.kind.clash" and b = R.counter "t.kind.clash" in
  R.incr a;
  Alcotest.(check int) "shared cell" (R.counter_value a) (R.counter_value b)

let test_snapshot_sorted () =
  ignore (R.counter "t.zzz");
  ignore (R.counter "t.aaa");
  let names = List.map (fun r -> r.R.r_name) (R.snapshot ()) in
  Alcotest.(check bool)
    "rows sorted by name" true
    (List.sort compare names = names)

(* --- trace export --- *)

let with_tracing f =
  T.clear ();
  T.set_enabled true;
  Fun.protect ~finally:(fun () -> T.set_enabled false) f

let test_trace_nesting_and_chrome () =
  with_tracing (fun () ->
      T.with_span "outer" (fun () ->
          T.with_span "inner" (fun () -> ignore (Sys.opaque_identity 1));
          T.log ~level:T.Info ~fields:[ ("k", "v") ] "hello"));
  let by_name n =
    List.find (fun e -> e.T.ev_name = n) (T.events ())
  in
  let outer = by_name "outer" and inner = by_name "inner" in
  Alcotest.(check string) "inner's parent" "outer" inner.T.ev_parent;
  Alcotest.(check string) "outer is a root" "" outer.T.ev_parent;
  Alcotest.(check bool)
    "inner time-contained in outer" true
    (inner.T.ev_ts_ns >= outer.T.ev_ts_ns
    && inner.T.ev_ts_ns + inner.T.ev_dur_ns
       <= outer.T.ev_ts_ns + outer.T.ev_dur_ns);
  (* the chrome export must parse (with our integer-only parser) and
     carry every span as a complete event *)
  let j = J.of_string (T.chrome_json ()) in
  let evs = J.to_list (J.member "traceEvents" j) in
  let names = List.map (fun e -> J.to_str (J.member "name" e)) evs in
  Alcotest.(check bool) "outer exported" true (List.mem "outer" names);
  Alcotest.(check bool) "inner exported" true (List.mem "inner" names);
  List.iter
    (fun e ->
      match J.to_str (J.member "ph" e) with
      | "X" -> Alcotest.(check bool) "dur >= 1us" true (J.to_int (J.member "dur" e) >= 1)
      | "i" -> ()
      | ph -> Alcotest.failf "unexpected phase %s" ph)
    evs

let test_trace_ndjson () =
  with_tracing (fun () ->
      T.with_span "a" (fun () -> ());
      T.log ~level:T.Warn "w");
  let lines =
    String.split_on_char '\n' (String.trim (T.ndjson ()))
  in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  List.iter
    (fun line ->
      let j = J.of_string line in
      Alcotest.(check bool)
        "ts_ns leads" true
        (String.length line > 9 && String.sub line 0 9 = "{\"ts_ns\":");
      match J.member "level" j with
      | J.String _ -> ()
      | _ -> Alcotest.fail "level field missing")
    lines

let test_trace_off_records_nothing () =
  T.clear ();
  T.set_enabled false;
  T.with_span "ghost" (fun () -> ());
  T.log "ghost";
  Alcotest.(check int) "no events" 0 (List.length (T.events ()))

let test_trace_ring_bound () =
  with_tracing (fun () ->
      T.set_capacity 16;
      for i = 1 to 40 do
        T.log (Printf.sprintf "e%d" i)
      done;
      Alcotest.(check int) "ring bounded" 16 (List.length (T.events ()));
      Alcotest.(check int) "drops counted" 24 (T.dropped ());
      (* oldest dropped: the survivors are the last 16 *)
      (match T.events () with
      | first :: _ -> Alcotest.(check string) "oldest survivor" "e25" first.T.ev_name
      | [] -> Alcotest.fail "empty ring"));
  T.set_capacity 65536

(* --- golden export bytes --- *)

(* Names and args carry quotes, newlines, tabs, backslashes and control
   characters; the expected bytes were recorded from the exporter that
   preceded the move onto Jsonw.  The instant's timestamp comes from
   the clock, so it is spliced in. *)
let golden_events () =
  with_tracing (fun () ->
      T.complete
        ~args:[ ("k\"ey", "v\nal\x01ue"); ("tab", "a\tb\\c") ]
        ~parent:"" ~tid:3 ~t0_ns:1_000_500 ~t1_ns:1_002_000 "span \"q\"\n";
      T.complete ~parent:"outer\rp" ~tid:0 ~t0_ns:2_000_000 ~t1_ns:2_000_010
        "tiny\x1f";
      T.complete ~tid:1 ~t0_ns:5_000 ~t1_ns:4_000 "neg";
      T.log ~level:T.Warn ~fields:[ ("why", "bad\r\n\"x\"\\") ] "inst\x02ant");
  match T.events () with
  | [ _; _; _; instant ] -> instant.T.ev_ts_ns
  | evs -> Alcotest.failf "expected 4 events, got %d" (List.length evs)

let test_chrome_golden () =
  let ts = string_of_int (golden_events () / 1000) in
  Alcotest.(check string)
    "chrome bytes"
    (String.concat ""
       [
         {|{"traceEvents":[|};
         {|{"name":"span \"q\"\n","ph":"X","ts":1000,"dur":2,"pid":0,"tid":3,|};
         {|"args":{"k\"ey":"v\nal\u0001ue","tab":"a\tb\\c"}},|};
         {|{"name":"tiny\u001f","ph":"X","ts":2000,"dur":1,"pid":0,"tid":0,|};
         {|"args":{"parent":"outer\rp"}},|};
         {|{"name":"neg","ph":"X","ts":5,"dur":1,"pid":0,"tid":1,"args":{}},|};
         {|{"name":"inst\u0002ant","ph":"i","ts":|}; ts;
         {|,"s":"t","pid":0,"tid":0,|};
         {|"args":{"level":"warn","why":"bad\r\n\"x\"\\"}}|};
         {|],"displayTimeUnit":"ns"}|};
       ])
    (T.chrome_json ())

let test_ndjson_golden () =
  let ts = string_of_int (golden_events ()) in
  Alcotest.(check string)
    "ndjson bytes"
    (String.concat ""
       [
         {|{"ts_ns":1000500,"level":"span","name":"span \"q\"\n","dur_ns":1500,|};
         {|"tid":3,"parent":"","k\"ey":"v\nal\u0001ue","tab":"a\tb\\c"}|}; "\n";
         {|{"ts_ns":2000000,"level":"span","name":"tiny\u001f","dur_ns":10,|};
         {|"tid":0,"parent":"outer\rp"}|}; "\n";
         {|{"ts_ns":5000,"level":"span","name":"neg","dur_ns":0,"tid":1,|};
         {|"parent":""}|}; "\n";
         {|{"ts_ns":|}; ts; {|,"level":"warn","name":"inst\u0002ant","dur_ns":0,|};
         {|"tid":0,"parent":"","why":"bad\r\n\"x\"\\"}|}; "\n";
       ])
    (T.ndjson ())

(* --- timed: a histogram always, a span while tracing --- *)

let test_timed_off () =
  T.clear ();
  T.set_enabled false;
  let h = R.histogram "t.timed.off_ns" in
  let hits = ref 0 in
  let v = T.timed h "t:off" (fun () -> incr hits; 41 + 1) in
  Alcotest.(check int) "payload ran once" 1 !hits;
  Alcotest.(check int) "value through" 42 v;
  Alcotest.(check int) "observed" 1 (R.histogram_view h).R.hv_count;
  Alcotest.(check int)
    "no span while tracing is off" 0
    (List.length (T.events ()));
  with_tracing (fun () -> T.timed h "t:on" (fun () -> ()));
  Alcotest.(check (list string))
    "span while tracing is on" [ "t:on" ]
    (List.map (fun e -> e.T.ev_name) (T.events ()));
  Alcotest.(check int) "observed again" 2 (R.histogram_view h).R.hv_count

let test_timed_nesting_and_raise () =
  let outer = R.histogram "t.timed.outer_ns"
  and inner = R.histogram "t.timed.inner_ns"
  and boom = R.histogram "t.timed.boom_ns" in
  with_tracing (fun () ->
      let v =
        T.timed outer "t:outer" (fun () ->
            T.timed inner "t:inner" (fun () -> 7))
      in
      Alcotest.(check int) "nested value" 7 v;
      match T.timed boom "t:boom" (fun () -> failwith "x") with
      | _ -> Alcotest.fail "exception swallowed"
      | exception Failure _ -> ());
  List.iter
    (fun (name, h) ->
      Alcotest.(check int)
        (name ^ " observed once") 1 (R.histogram_view h).R.hv_count)
    [ ("outer", outer); ("inner", inner); ("raising call", boom) ];
  let parent n =
    (List.find (fun e -> e.T.ev_name = n) (T.events ())).T.ev_parent
  in
  Alcotest.(check string) "inner nests in outer" "t:outer" (parent "t:inner");
  Alcotest.(check string)
    "raising span recorded at the root" "" (parent "t:boom")

(* --- row codec and table --- *)

let test_codec_roundtrip () =
  R.incr ~by:3 (R.counter "t.codec.counter");
  R.set (R.gauge "t.codec.gauge") (-2);
  R.observe (R.histogram "t.codec.hist") 1500;
  let rows = R.snapshot () in
  let back = R.of_json (J.of_string (J.to_string (R.to_json rows))) in
  Alcotest.(check bool)
    "snapshot -> encode -> decode is the identity" true (rows = back)

let test_table_omits_zero_rows () =
  let row name value = { R.r_name = name; r_value = value } in
  let hv count =
    {
      R.hv_count = count;
      hv_sum_ns = 3000 * count;
      hv_buckets = Array.init R.n_buckets (fun i -> if i = 11 then count else 0);
    }
  in
  let out =
    Format.asprintf "%a" R.pp_rows
      [
        row "t.zero.counter" (R.Counter_v 0);
        row "t.zero.gauge" (R.Gauge_v 0);
        row "t.zero.hist" (R.Histogram_v (hv 0));
        row "t.live.counter" (R.Counter_v 5);
        row "t.live.gauge" (R.Gauge_v (-1));
        row "t.live.hist" (R.Histogram_v (hv 2));
      ]
  in
  let lines = String.split_on_char '\n' (String.trim out) in
  let names = List.map (fun l -> List.hd (String.split_on_char ' ' l)) lines in
  Alcotest.(check (list string))
    "only rows that moved, histograms last"
    [ "t.live.counter"; "t.live.gauge"; "--"; "t.live.hist" ]
    names

(* --- warm = cold with telemetry on --- *)

let temp_dir =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rvobs_test_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists d) then Unix.mkdir d 0o755;
  d

let fib_elf =
  lazy
    (let path = Filename.concat temp_dir "fib.elf" in
     if not (Sys.file_exists path) then
       Elfkit.Write.to_file path
         (Minicc.Driver.compile Minicc.Programs.fib).Minicc.Driver.image;
     path)

let test_warm_cold_with_telemetry () =
  (* metrics and spans must never leak into payload bytes *)
  with_tracing (fun () ->
      let path = Lazy.force fib_elf in
      List.iter
        (fun (action, name) ->
          let c = Cache.create () in
          let req = { Wire.rq_id = 1L; rq_path = path; rq_action = action } in
          let cold = Jobs.exec c req in
          let warm = Jobs.exec c req in
          Alcotest.(check bool) (name ^ " cold ok") true cold.Wire.rs_ok;
          Alcotest.(check bool) (name ^ " warm cached") true warm.Wire.rs_cached;
          Alcotest.(check string)
            (name ^ " warm = cold under telemetry")
            cold.Wire.rs_payload warm.Wire.rs_payload)
        [
          (Wire.Parse, "parse");
          (Wire.Lint, "lint");
          ( Wire.Rewrite
              (Patch_api.Rewriter.counter_spec ~entries:[ "main" ] ()),
            "rewrite" );
        ])

(* --- metrics wire action --- *)

let test_metrics_wire_roundtrip () =
  let req = { Wire.rq_id = 11L; rq_path = ""; rq_action = Wire.Metrics } in
  let req' = Wire.decode_request (Wire.encode_request req) in
  Alcotest.(check bool) "roundtrip" true (req = req');
  let req'' = Wire.decode_request "{\"id\":11,\"action\":\"metrics\"}" in
  Alcotest.(check bool) "bare decode" true (req = req'')

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "view" `Quick test_histogram_view;
          Alcotest.test_case "approx quantiles" `Quick test_quantiles;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counter merge (4 domains)" `Quick
            test_counter_merge;
          Alcotest.test_case "histogram merge (4 domains)" `Quick
            test_histogram_merge;
          Alcotest.test_case "gauge balance (4 domains)" `Quick
            test_gauge_balance;
          Alcotest.test_case "enabled switch" `Quick test_enabled_switch;
          Alcotest.test_case "kind clash" `Quick test_kind_clash;
          Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
          Alcotest.test_case "codec round trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "table omits zero rows" `Quick
            test_table_omits_zero_rows;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting + chrome export" `Quick
            test_trace_nesting_and_chrome;
          Alcotest.test_case "ndjson export" `Quick test_trace_ndjson;
          Alcotest.test_case "off records nothing" `Quick
            test_trace_off_records_nothing;
          Alcotest.test_case "ring bound" `Quick test_trace_ring_bound;
          Alcotest.test_case "chrome golden bytes" `Quick test_chrome_golden;
          Alcotest.test_case "ndjson golden bytes" `Quick test_ndjson_golden;
        ] );
      ( "timed",
        [
          Alcotest.test_case "span only while tracing" `Quick test_timed_off;
          Alcotest.test_case "nesting and a raising call" `Quick
            test_timed_nesting_and_raise;
        ] );
      ( "differential",
        [
          Alcotest.test_case "warm = cold with telemetry on" `Quick
            test_warm_cold_with_telemetry;
          Alcotest.test_case "metrics wire roundtrip" `Quick
            test_metrics_wire_roundtrip;
        ] );
    ]
