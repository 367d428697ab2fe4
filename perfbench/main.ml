(* perfbench: the paper workflow end to end and layer by layer.

     main.exe --workload W --seed N --seconds S --trace 0|1 --rvserved EXE

   Every workload runs the same three phases, each timed with tracing
   off:

     sessions   tool sessions on a seeded corpus (Session)
     runs       the instrumented matmul runs (Runs)
     serving    an open-loop request stream against rvserved (Serve)

   A workload runs its primary phase at full size for 70% of the time
   and the other two at a small fixed "probe" size for 15% each, so
   that every workload reports every end-to-end metric of
   BENCHMARK.json.  Session, iteration and set-up times are wall times
   scaled to a reference host speed by a calibration kernel (Calib).  A gain is claimed
   against the metric on the workload whose primary phase it belongs
   to; README.md has the map.

   With --trace 1 the workload runs twice, untraced and then with
   bench-side layer spans on (and rvserved started with --trace-out),
   and prints the per-layer metrics instead.  The last stdout line is
   the result object; the line before it carries host facts, input
   hashes, sample counts and check messages. *)

open Perfbench
module J = Dyn_util.Jsonw

(* --- workloads ------------------------------------------------------------- *)

type session_size = { s_funcs : int; s_domains : int; s_entry_counters : int option }
type serve_size = { v_sizes : int list; v_low_rps : float; v_high_rps : float }

type phase = Sessions | Runs | Serving

type workload = {
  w_name : string;
  primary : phase;
  session : session_size;
  run : int * int;  (** matmul n, reps *)
  serve : serve_size;
}

let dense_session = { s_funcs = 208; s_domains = 1; s_entry_counters = None }
let large_session = { s_funcs = 2000; s_domains = 2; s_entry_counters = Some 32 }
let probe_session = { s_funcs = 24; s_domains = 1; s_entry_counters = None }
let full_run = (24, 2)
let probe_run = (8, 1)

(* 24 mutatees, four of each size (the probe: two of each).  The rates
   are frozen here.  On the 2-vCPU container the baseline was taken on,
   with the host at full speed, the one-domain daemon keeps its warm p99
   under 1 ms up to about 3000 requests/s, reaches 4 ms at 5000/s, and at
   8000/s the generator falls behind: the high rate is about half of
   that, the low rate a third of the high. *)
let full_serve =
  { v_sizes = List.concat_map (fun s -> [ s; s; s; s ]) [ 4; 6; 8; 10; 12; 16 ];
    v_low_rps = 1000.; v_high_rps = 3000. }

let probe_serve =
  { full_serve with v_sizes = List.concat_map (fun s -> [ s; s ]) [ 4; 6; 8; 10; 12; 16 ] }

(* The low-rate phase is sized by its cold computes: every (mutatee,
   kind) key is touched first there, one request in [cold_every], so a
   cold compute or the requests queued behind one fills every window's
   p99.  The high-rate phase gets the rest of the serving time. *)
let cold_every = 50

let serve_phases v ~n_keys ~secs =
  let low_s = float_of_int (n_keys * cold_every) /. v.v_low_rps in
  [ (v.v_low_rps, low_s); (v.v_high_rps, Float.max 1. (secs -. low_s)) ]

(* The p99 latency limit both rates are held to. *)
let p99_limit_ms = 10.

let workloads =
  [
    { w_name = "instrument-dense"; primary = Sessions; session = dense_session;
      run = probe_run; serve = probe_serve };
    { w_name = "analyze-large"; primary = Sessions; session = large_session;
      run = probe_run; serve = probe_serve };
    { w_name = "run-traced"; primary = Runs; session = probe_session; run = full_run;
      serve = probe_serve };
    { w_name = "serve-mix"; primary = Serving; session = probe_session; run = probe_run;
      serve = full_serve };
  ]

(* Share of --seconds each phase gets.  A probe's serving phase still
   gives each rate at least 1000 requests at --seconds 22, so its p99
   has ten samples beyond it. *)
let share w p = if p = w.primary then 0.7 else 0.15

(* --- set-up ---------------------------------------------------------------- *)

(* Set-up runs this many times; setup_s is the median, the last is used.
   One set-up's time wanders by up to half from the next's on the same
   seed (the 2000-function compile of analyze-large most). *)
let n_setups = 5

type setup = {
  corpus : Corpus.t;
  session_cfg : Session.config;
  matmul : Runs.setup;
  mutatees : Corpus.t array;
  paths : string array;
  daemon : Serve.daemon;
}

let entry_names ~seed (c : Corpus.t) k =
  let rng = Check_api.Prng.of_seed_index ~seed:(Int64.of_int seed) ~index:11 in
  let idx = Array.init c.Corpus.n_funcs Fun.id in
  Corpus.shuffle rng idx;
  Array.to_list (Array.sub idx 0 (min k c.Corpus.n_funcs))
  |> List.sort compare
  |> List.map (Printf.sprintf "f%d")

let write_file path b =
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let setup_once ~w ~seed ~dir ~rvserved ~trace : setup =
  let corpus = Corpus.generate ~seed w.session.s_funcs in
  let points =
    match w.session.s_entry_counters with
    | None -> Session.Every_block
    | Some k -> Session.Entries (entry_names ~seed corpus k)
  in
  let n, reps = w.run in
  let matmul = Runs.setup ~n ~reps in
  let mutatees =
    Array.of_list
      (List.mapi (fun i size -> Corpus.generate ~seed:((seed * 1000) + i) size) w.serve.v_sizes)
  in
  let paths =
    Array.mapi
      (fun i (m : Corpus.t) ->
        let p = Filename.concat dir (Printf.sprintf "mutatee%02d.elf" i) in
        write_file p m.Corpus.elf;
        p)
      mutatees
  in
  let daemon = Serve.start ~exe:rvserved ~dir ~trace in
  { corpus; session_cfg = { Session.domains = w.session.s_domains; points }; matmul;
    mutatees; paths; daemon }

(* --- phases ---------------------------------------------------------------- *)

(* --- peak memory ---

   The high-water RSS over a fixed amount of work: read after set-up,
   then reset (Linux clear_refs) before the first [min_units] sessions
   and read after them, and the same for the iterations, so the number
   of further units a fast host fits in does not move it (the parser
   keeps an LRU of recent images, so memory grows with the sessions
   run).  The serving stream is left out: its work is done in the
   daemon's process. *)

let min_units = 3

let vm_hwm_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec go () =
      match input_line ic with
      | exception End_of_file -> None
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> Some kb)
      | _ -> go ()
    in
    let r = go () in
    close_in ic;
    Option.map (fun kb -> float_of_int kb /. 1024.) r
  with Sys_error _ -> None

(* (phase, high-water MB) of each reading, newest first *)
let peaks = ref []
let note_peak phase = Option.iter (fun mb -> peaks := (phase, mb) :: !peaks) (vm_hwm_mb ())
let peak_mb readings = List.fold_left (fun a (_, mb) -> Float.max a mb) 0. readings

let reset_peak () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

let now () = Unix.gettimeofday ()

(* A repeated unit: each call is timed and traced as one unit, and
   [keep] (untimed) picks what is kept of its result.

   A calibration sample (Calib) is taken before the first unit, after the
   last, and between two units whenever [cal_every] seconds of units
   have run since the last sample; a unit's time is its wall time scaled
   by the mean of the samples on either side of it. *)
let cal_every = 0.25

type series = {
  kind : string;
  budget : float;  (** seconds of units to run *)
  mutable spent : float;
  mutable n : int;
  mutable walls : float list;  (** unit wall times, newest first *)
  mutable cals : (int * float) list;
      (** (units run before it, kernel seconds) of each sample, newest first *)
  mutable since_cal : float;
  step : int -> float;  (** run unit [i], return its wall time *)
}

let series ~secs kind f keep acc =
  let step i =
    let t0 = now () in
    let r = Layer.unit_span kind i f in
    let dt = now () -. t0 in
    acc := keep i r :: !acc;
    dt
  in
  { kind; budget = secs; spent = 0.; n = 0; walls = []; cals = []; since_cal = 0.; step }

let calibrate s =
  s.cals <- (s.n, Calib.sample ()) :: s.cals;
  s.since_cal <- 0.

let run_unit s =
  if s.cals = [] || s.since_cal >= cal_every then calibrate s;
  let dt = s.step s.n in
  s.walls <- dt :: s.walls;
  s.spent <- s.spent +. dt;
  s.since_cal <- s.since_cal +. dt;
  s.n <- s.n + 1

(* The scaled unit times, oldest first. *)
let scaled s =
  let cals = Array.of_list (List.rev s.cals) in
  let j = ref 0 in
  List.rev s.walls
  |> List.mapi (fun i dt ->
         (* the last sample taken before unit [i] and the first after it *)
         while !j + 1 < Array.length cals && fst cals.(!j + 1) <= i do incr j done;
         let before = snd cals.(!j) in
         let after = if !j + 1 < Array.length cals then snd cals.(!j + 1) else before in
         Calib.scale ~k:((before +. after) /. 2.) dt)

(* The series run one after the other, each from a compacted heap: the
   first [min_units] units each from a collected heap, so the peak
   memory read after them does not depend on where the collector's
   cycles fell, then the rest until the series has had its budget, and
   a last calibration sample.  A full collection before every unit would
   cost more than a short unit on analyze-large, whose parser keeps
   hundreds of MB of images live. *)
let run_all (all : series list) =
  List.iter
    (fun s ->
      Gc.compact ();
      reset_peak ();
      for _ = 1 to min_units do
        Gc.full_major ();
        run_unit s
      done;
      note_peak s.kind;
      while s.spent < s.budget do
        run_unit s
      done;
      calibrate s)
    all

type measured = {
  first_session : Session.outcome;
  sessions : (float * (string * Session.counts)) list;
      (** scaled time, rewritten-image hash and counts of each session *)
  iterations : (float * Runs.iteration) list;  (** scaled time and outcome *)
  walls : (string * float list) list;  (** unscaled unit times, per series *)
  kernel_s : float list;  (** every calibration sample *)
  stream : Serve.outcome;
  phases : (float * float) list;  (** serve (rate, seconds) phases *)
}

(* Sessions and run iterations first, the probe before the primary
   phase so that it runs on a small heap, then the serving stream. *)
let measure ~w ~seed ~seconds (s : setup) : measured =
  let secs p = seconds *. share w p in
  let first = ref None and sessions = ref [] and iterations = ref [] in
  let ss =
    series ~secs:(secs Sessions) "session"
      (fun () -> Session.run s.session_cfg s.corpus.Corpus.elf)
      (fun i o ->
        if i = 0 then first := Some o;
        Session.digest o)
      sessions
  in
  let si = series ~secs:(secs Runs) "iteration" (fun () -> Runs.iteration s.matmul) (fun _ it -> it) iterations in
  run_all (if w.primary = Sessions then [ si; ss ] else [ ss; si ]);
  let sessions = List.combine (scaled ss) (List.rev !sessions) in
  let iterations = List.combine (scaled si) (List.rev !iterations) in
  let phases = serve_phases w.serve ~n_keys:(Array.length s.paths * Array.length Serve.kinds) ~secs:(secs Serving) in
  let reqs = Serve.plan ~seed ~n_mutatees:(Array.length s.paths) phases in
  Gc.compact ();
  let stream = Serve.run_stream s.daemon ~paths:s.paths reqs in
  {
    first_session = Option.get !first;
    sessions;
    iterations;
    walls = [ ("session", List.rev ss.walls); ("iteration", List.rev si.walls) ];
    kernel_s = List.map snd (ss.cals @ si.cals);
    stream;
    phases;
  }

(* --- checks ---------------------------------------------------------------- *)

type checked = { attempted : int; failed : int; messages : string list }

let check_sessions (s : setup) (m : measured) : checked =
  let msgs = ref [] and failed = ref 0 in
  let first = m.first_session in
  let first_sha, first_counts = snd (List.hd m.sessions) in
  List.iteri
    (fun i (_, (sha, (c : Session.counts))) ->
      let bad =
        List.filter_map Fun.id
          [
            (if c.Session.verify_errors > 0 then Some "structural verifier errors" else None);
            (if c.Session.proved <> c.Session.sites || c.Session.sites <> c.Session.points then
               Some "not every symbolic site proved"
             else None);
            (if sha <> first_sha || c <> first_counts then
               Some "rewritten image or counts differ from session 0"
             else None);
          ]
      in
      if bad <> [] then begin
        incr failed;
        msgs := Printf.sprintf "session %d: %s" i (String.concat ", " bad) :: !msgs
      end)
    m.sessions;
  (* the first session's image against the original, run under rvsim,
     and its counter total against the interpreter-hook reference *)
  let orig = first.Session.binary in
  let targets =
    match s.session_cfg.Session.points with
    | Session.Every_block ->
        List.concat_map
          (fun f -> List.map (fun b -> b.Parse_api.Cfg.b_start) (Parse_api.Cfg.blocks_of orig.Core.cfg f))
          (Core.functions orig)
    | Session.Entries names -> List.map (fun n -> (Core.find_function orig n).Parse_api.Cfg.f_entry) names
  in
  let tbl = Hashtbl.create (List.length targets) in
  List.iter (fun a -> Hashtbl.replace tbl a ()) targets;
  let hits = ref 0 in
  let ref_run = Sim.hooked (Core.image orig) (fun pc _ -> if Hashtbl.mem tbl pc then incr hits) in
  let base = Sim.exec (Rvsim.Loader.load (Core.image orig)) in
  let inst = Sim.exec (Rvsim.Loader.load first.Session.rewritten) in
  let total = Sim.read_var inst first.Session.counter in
  let bad =
    List.filter_map Fun.id
      [
        (match base.Sim.stop with Rvsim.Machine.Exited _ -> None | _ -> Some "original did not exit");
        (if inst.Sim.stop <> base.Sim.stop || inst.Sim.stdout <> base.Sim.stdout then
           Some "rewritten binary's exit status or stdout differs from the original's"
         else None);
        (if ref_run.Sim.stop <> base.Sim.stop || ref_run.Sim.stdout <> base.Sim.stdout then
           Some "interpreter and block engine disagree on the original"
         else None);
        (if total <> Int64.of_int !hits then
           Some (Printf.sprintf "counter total %Ld, interpreter reference %d" total !hits)
         else None);
      ]
  in
  let run_failed = if bad = [] then 0 else 1 in
  {
    attempted = List.length m.sessions + 1;
    failed = !failed + run_failed;
    messages = List.rev !msgs @ List.map (fun m -> "session run: " ^ m) bad;
  }

let check_iterations (s : setup) (its : (float * Runs.iteration) list) : checked =
  let rf = Runs.reference s.matmul in
  let first = snd (List.hd its) in
  let counts (it : Runs.iteration) =
    List.map (fun v -> (v.Runs.cycles, v.Runs.instret, v.Runs.counter, v.Runs.points)) it.Runs.vs
  in
  let msgs = ref [] and failed = ref 0 in
  List.iteri
    (fun i (_, it) ->
      let bad = Runs.check rf it @ if counts it <> counts first then [ "counts differ from iteration 0" ] else [] in
      if bad <> [] then begin
        incr failed;
        msgs := Printf.sprintf "iteration %d: %s" i (String.concat ", " bad) :: !msgs
      end)
    its;
  { attempted = List.length its; failed = !failed; messages = List.rev !msgs }

let check_stream (o : Serve.outcome) : checked =
  let failed, msgs = Serve.check o in
  { attempted = Array.length o.Serve.responses; failed; messages = msgs }

(* --- metrics --------------------------------------------------------------- *)

let phase_latencies (o : Serve.outcome) phase =
  Array.to_list o.Serve.responses
  |> List.filter (fun r -> r.Serve.req.Serve.phase = phase)
  |> List.map (fun r -> r.Serve.latency_ms)

(* p99 of each consecutive window of [window] requests (the last window
   absorbs the remainder), then the median over windows: one host stall
   moves one window, not the figure.  Every window keeps at least ten
   requests beyond its p99. *)
let window = 1000

let windowed_p99 l =
  let rec chunks l =
    let rec take k acc = function
      | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let w, rest = take window [] l in
    if List.length rest < window then [ w @ rest ] else w :: chunks rest
  in
  Stat.median (List.map (Stat.percentile 99.) (chunks l))

let completed_rps (o : Serve.outcome) phase =
  let ok =
    Array.fold_left
      (fun a r -> if r.Serve.req.Serve.phase = phase && r.Serve.ok then a + 1 else a)
      0 o.Serve.responses
  in
  float_of_int ok /. (o.Serve.phase_end.(phase) -. o.Serve.phase_start.(phase))

(* JSON numbers must be finite: a percentile that lands on a failed
   request (infinitely late) is reported as this many ms. *)
let finite_ms v = if Float.is_finite v then v else 1e9

(* The serving latencies: measured on every run, printed in the facts
   line and by --table, and reported with the per-layer metrics, but not
   gated (see README.md). *)
let serve_latencies (m : measured) =
  let lat = phase_latencies m.stream in
  [
    ("serve_low.p50_ms", finite_ms (Stat.percentile 50. (lat 0)), "ms");
    ("serve_low.p99_ms", finite_ms (windowed_p99 (lat 0)), "ms");
    ("serve_high.p50_ms", finite_ms (Stat.percentile 50. (lat 1)), "ms");
    ("serve_high.p99_ms", finite_ms (windowed_p99 (lat 1)), "ms");
  ]

let end_to_end ~setup_s ~peaks (m : measured) =
  let it = snd (List.hd m.iterations) in
  [
    ("setup_s", setup_s, "s");
    ("session_s", Stat.median (List.map fst m.sessions), "s");
    ("run_s", Stat.median (List.map fst m.iterations), "s");
    ("fn_count_overhead_pct", Runs.overhead_pct it "fn-count", "%");
    ("bb_count_overhead_pct", Runs.overhead_pct it "bb-count", "%");
    ("bb_trace_overhead_pct", Runs.overhead_pct it "bb-trace", "%");
    ("mem_trace_overhead_pct", Runs.overhead_pct it "mem-trace", "%");
    ("serve_high.completed_rps", completed_rps m.stream 1, "1/s");
    ("peak_mem_mb", peak_mb peaks, "MB");
  ]

(* The primary phase's unit time, for the tracing-overhead comparison. *)
let primary_time w (m : measured) =
  match w.primary with
  | Sessions -> Stat.median (List.map fst m.sessions)
  | Runs -> Stat.median (List.map fst m.iterations)
  | Serving -> Stat.median (Array.to_list (Array.map (fun r -> r.Serve.latency_ms) m.stream.Serve.responses))

let per_layer ~w ~(untraced : measured) ~(traced : measured) ~(sum : Layer.summary) ~daemon_spans =
  let n_sessions = float_of_int (List.length traced.sessions) in
  let n_its = float_of_int (List.length traced.iterations) in
  let s0 = traced.first_session.Session.counts in
  let it0 = snd (List.hd traced.iterations) in
  let ms ns = float_of_int ns /. 1e6 in
  let sl name = Layer.find sum ~unit:"session" name in
  let il name = Layer.find sum ~unit:"iteration" name in
  let per_session name = ms (sl name).Layer.self_ns /. n_sessions in
  let per_it name = ms (il name).Layer.self_ns /. n_its in
  let fi = float_of_int in
  let inst_vs = List.filter (fun v -> v.Runs.name <> "base") it0.Runs.vs in
  let sum_vs f = List.fold_left (fun a v -> a + f v) 0 inst_vs in
  let tramp_per_point = fi (sum_vs (fun v -> v.Runs.tramp_bytes)) /. fi (sum_vs (fun v -> v.Runs.points)) in
  let rv name = Runs.find it0 name in
  let parse_s = ms (sl "parse.cfg").Layer.self_ns /. 1e3 in
  let sim_run_s =
    List.fold_left (fun a v -> a +. (ms (il ("sim.run." ^ v)).Layer.self_ns /. 1e3)) 0. Runs.variants
  in
  let sim_instret =
    List.fold_left (fun a (_, it) -> a +. List.fold_left (fun a v -> a +. Int64.to_float v.Runs.instret) 0. it.Runs.vs) 0. traced.iterations
  in
  let mem = rv "mem-trace" and base = rv "base" in
  let resp = Array.to_list traced.stream.Serve.responses in
  let ok = List.filter (fun r -> r.Serve.ok) resp in
  let cached = List.filter (fun r -> r.Serve.cached) ok in
  let med l = if l = [] then 0. else Stat.median l in
  let session_cov =
    List.filter_map (fun (k, dur, cov) -> if k = "session" then Some (100. *. fi cov /. fi dur) else None) sum.Layer.units
  in
  let variants =
    List.concat_map
      (fun v ->
        let r = rv v in
        [
          ("sim.run_ms." ^ v, per_it ("sim.run." ^ v), "ms");
          ("sim.guest_cycles." ^ v, Int64.to_float r.Runs.cycles, "cycles");
          ("sim.instret." ^ v, Int64.to_float r.Runs.instret, "count");
        ])
      Runs.variants
  in
  [
    ("elf.read_ms", per_session "elf.read", "ms");
    ("symtab.build_ms", per_session "symtab.build", "ms");
    ("parse.cfg_ms", per_session "parse.cfg", "ms");
    ("parse.mips", fi s0.Session.insns *. n_sessions /. parse_s /. 1e6, "Minsn/s");
    ("parse.alloc_words_per_insn", (sl "parse.cfg").Layer.words /. n_sessions /. fi s0.Session.insns, "words");
    ("parse.functions", fi s0.Session.functions, "count");
    ("parse.blocks", fi s0.Session.blocks, "count");
    ("parse.insns", fi s0.Session.insns, "count");
    ("dataflow.liveness_ms", per_session "dataflow.liveness", "ms");
    ("lint.lint_ms", per_session "lint.lint", "ms");
    ("lint.verify_ms", per_session "lint.verify", "ms");
    ("lint.verify_us_per_point", per_session "lint.verify" *. 1e3 /. fi s0.Session.points, "us");
    ("patch.points_ms", per_session "patch.points", "ms");
    ("patch.rewrite_ms", per_session "patch.rewrite", "ms");
    ("patch.rewrite_us_per_point", per_session "patch.rewrite" *. 1e3 /. fi s0.Session.points, "us");
    ("patch.alloc_mwords", (sl "patch.rewrite").Layer.words /. n_sessions /. 1e6, "Mwords");
    ("patch.tramp_bytes_per_point", tramp_per_point, "bytes");
    ("patch.points", fi (sum_vs (fun v -> v.Runs.points)), "count");
    ("patch.dead_alloc", fi (sum_vs (fun v -> v.Runs.dead_alloc)), "count");
    ("patch.spilled", fi (sum_vs (fun v -> v.Runs.spilled)), "count");
    ("patch.traps", fi (sum_vs (fun v -> v.Runs.traps)), "count");
    ("verify.symbolic_ms", per_session "verify.symbolic", "ms");
    ("verify.proved_ratio", fi s0.Session.proved /. fi s0.Session.sites, "ratio");
    ("sim.load_ms", ms (il "sim.load").Layer.self_ns /. fi (max 1 (il "sim.load").Layer.calls), "ms");
  ]
  @ variants
  @ [
      ("sim.mips", sim_instret /. sim_run_s /. 1e6, "Minsn/s");
      ("trace.cycles_per_record", Int64.to_float (Int64.sub mem.Runs.cycles base.Runs.cycles) /. Int64.to_float mem.Runs.counter, "cycles");
      ("trace.records.mem", Int64.to_float mem.Runs.counter, "count");
      ("trace.records.bb", Int64.to_float (rv "bb-trace").Runs.counter, "count");
      ("trace.flushes", fi (mem.Runs.flushes + (rv "bb-trace").Runs.flushes), "count");
      ("trace.drain_ms", per_it "trace.drain", "ms");
      ("perf.profile_ms", per_it "perf.profile", "ms");
      ("perf.samples", fi it0.Runs.samples, "count");
      ("serve.queue_wait_ms", med (Serve.durations_ms daemon_spans "pool:wait"), "ms");
    ]
  @ List.map
      (fun (k, l) -> ("serve.execute_ms." ^ k, med l, "ms"))
      (Serve.execute_ms_by_kind daemon_spans)
  @ [
      ("serve.serialize_ms", med (Serve.durations_ms daemon_spans "serialize"), "ms");
      ("serve.write_ms", med (Serve.durations_ms daemon_spans "write"), "ms");
      ("serve.cache_hit_ratio", fi (List.length cached) /. fi (max 1 (List.length ok)), "ratio");
      ("serve.cold_jobs", fi (List.length ok - List.length cached), "count");
      ("serve.generator_late_ms", Stat.percentile 99. (Array.to_list traced.stream.Serve.late_ms), "ms");
      ("obs.trace_overhead_pct",
        100. *. (primary_time w traced -. primary_time w untraced) /. primary_time w untraced, "%");
      ("obs.session_attributed_pct", List.fold_left min 100. session_cov, "%");
    ]
  @ serve_latencies untraced

(* Shortest decimal that reads back as the same float. *)
let num v =
  if not (Float.is_finite v) then invalid_arg "perfbench: non-finite metric";
  let s = Printf.sprintf "%.15g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

(* --- main ------------------------------------------------------------------ *)

let host_facts ~seed (s : setup) =
  let nproc =
    try
      let ic = open_in "/proc/cpuinfo" in
      let n = ref 0 in
      (try
         while true do
           let l = input_line ic in
           if String.length l >= 9 && String.sub l 0 9 = "processor" then incr n
         done
       with End_of_file -> ());
      close_in ic;
      !n
    with Sys_error _ -> 0
  in
  [
    ("nproc", J.Int (Int64.of_int nproc));
    ("recommended_domain_count", J.Int (Int64.of_int (Domain.recommended_domain_count ())));
    ("ocaml_version", J.String Sys.ocaml_version);
    ("git_commit", J.String (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_COMMIT")));
    ("seed", J.Int (Int64.of_int seed));
    ("corpus_sha256", J.String s.corpus.Corpus.sha256);
    ("mutatee_sha256", J.List (Array.to_list (Array.map (fun m -> J.String m.Corpus.sha256) s.mutatees)));
  ]

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 --rvserved EXE [--workdir DIR]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let w =
    match List.find_opt (fun w -> w.w_name = get "workload") workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ get "workload");
        exit 2
  in
  let seed = int_of_string (get "seed") in
  let seconds = float_of_string (get "seconds") in
  let trace = get "trace" = "1" in
  let rvserved = get "rvserved" in
  let workdir = Option.value ~default:".perfbench" (List.assoc_opt "workdir" opts) in
  (try Sys.mkdir workdir 0o755 with Sys_error _ -> ());
  let dir = Filename.concat workdir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Sys.mkdir dir 0o755;
  let daemons = ref [] in
  let cleanup () =
    List.iter (fun d -> try Serve.stop d with _ -> ()) !daemons;
    daemons := []
  in
  let on_signal _ =
    cleanup ();
    rm_rf dir;
    exit 1
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  let result =
    try
      (* each set-up is scaled by calibration samples taken just before
         and after it, like a unit of a series *)
      let setup ~trace =
        Gc.full_major ();
        let k0 = Calib.sample () in
        let t0 = now () in
        let s = setup_once ~w ~seed ~dir ~rvserved ~trace in
        let dt = now () -. t0 in
        daemons := s.daemon :: !daemons;
        let k1 = Calib.sample () in
        (Calib.scale ~k:((k0 +. k1) /. 2.) dt, s)
      in
      let reps = List.init n_setups (fun _ -> setup ~trace:false) in
      note_peak "setup";
      let setup_times = List.map fst reps in
      let setup_s = Stat.median setup_times in
      let s = snd (List.nth reps (n_setups - 1)) in
      List.iter (fun (_, o) -> if o != s then Serve.stop o.daemon) reps;
      daemons := [ s.daemon ];
      let m = measure ~w ~seed ~seconds s in
      (* the untraced run's readings; a traced run adds its own *)
      let peaks = !peaks in
      let traced =
        if not trace then None
        else begin
          (* a fresh daemon with --trace-out, so its cache starts cold too *)
          Serve.stop s.daemon;
          let _, s' = setup ~trace:true in
          daemons := [ s'.daemon ];
          Layer.start ();
          let m' = measure ~w ~seed ~seconds s' in
          Layer.stop ();
          Serve.stop s'.daemon;
          daemons := [];
          let daemon_trace = Option.get s'.daemon.Serve.trace_out in
          let spans = Serve.read_trace daemon_trace in
          let out name = Filename.concat workdir (Printf.sprintf name w.w_name seed) in
          Sys.rename daemon_trace (out "rvserved-%s-%d.ndjson");
          Dyn_obs.Trace.write_out (out "trace-%s-%d.json");
          Some (m', Layer.summary (), spans)
        end
      in
      let checks =
        [ check_sessions s m; check_iterations s m.iterations; check_stream m.stream ]
      in
      cleanup ();
      let attempted = List.fold_left (fun a c -> a + c.attempted) 0 checks in
      let failed = List.fold_left (fun a c -> a + c.failed) 0 checks in
      let metrics =
        match traced with
        | None -> end_to_end ~setup_s ~peaks m
        | Some (m', sum, spans) -> per_layer ~w ~untraced:m ~traced:m' ~sum ~daemon_spans:spans
      in
      let q l = J.List (List.map (fun p -> J.String (num (Stat.percentile p l))) [ 25.; 50.; 75. ]) in
      let details =
        J.Obj
          ([ ("workload", J.String w.w_name) ]
          @ host_facts ~seed s
          @ [
              ("error_rate", J.String (num (float_of_int failed /. float_of_int attempted)));
              ("samples",
                J.Obj
                  [
                    ("sessions", J.Int (Int64.of_int (List.length m.sessions)));
                    ("iterations", J.Int (Int64.of_int (List.length m.iterations)));
                    ("requests", J.Int (Int64.of_int (Array.length m.stream.Serve.responses)));
                    ("setups", J.Int (Int64.of_int n_setups));
                  ]);
              ("quartiles_s",
                J.Obj
                  [ ("session", q (List.map fst m.sessions)); ("iteration", q (List.map fst m.iterations)) ]);
              ("setups_s", J.List (List.map (fun dt -> J.String (num dt)) setup_times));
              ("peak_mb", J.Obj (List.rev_map (fun (k, mb) -> (k, J.String (num mb))) peaks));
              ("wall_quartiles_s", J.Obj (List.map (fun (k, l) -> (k, q l)) m.walls));
              ("calibration",
                J.Obj
                  [
                    ("ref_s", J.String (num Calib.ref_s));
                    ("samples", J.Int (Int64.of_int (List.length m.kernel_s)));
                    ("kernel_quartiles_s", q m.kernel_s);
                  ]);
              ("serve_rates_rps", J.List (List.map (fun (r, _) -> J.String (num r)) m.phases));
              ("serve_latency_ms",
                J.Obj (List.map (fun (k, v, _) -> (k, J.String (num v))) (serve_latencies m)));
              ("p99_limit_ms", J.String (num p99_limit_ms));
              ("p99_within_limit",
                J.List
                  (List.mapi
                     (fun p _ -> J.Bool (windowed_p99 (phase_latencies m.stream p) <= p99_limit_ms))
                     m.phases));
              ("checks", J.List (List.concat_map (fun c -> List.map (fun s -> J.String s) c.messages) checks));
            ])
      in
      Ok (attempted, failed, metrics, details)
    with e ->
      cleanup ();
      Error (Printexc.to_string e)
  in
  rm_rf dir;
  match result with
  | Error msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 1
  | Ok (attempted, failed, metrics, details) ->
      print_endline (J.to_string details);
      let metric (name, v, unit) =
        Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (J.to_string (J.String name)) (num v)
          (J.to_string (J.String unit))
      in
      Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
        (failed = 0) attempted failed
        (String.concat "," (List.map metric metrics))
