(* The instrumented run (paper §4.1 and §4.3): the matmul mutatee run
   as-is and under four kinds of instrumentation in its [multiply]
   function, then profiled by sampling.

     base       the original binary
     fn-count   one counter at multiply's entry
     bb-count   one counter at every block of multiply
     bb-trace   one TraceAPI block record per block execution
     mem-trace  one TraceAPI record per load and store

   Guest cycles and instret are exact simulator counts, so the overhead
   percentages are deterministic; wall time is what [run_s] measures. *)

let func = "multiply"
let ring_capacity = 1024
let profile_period = 10_000L

type setup = { binary : Core.binary }

let setup ~n ~reps =
  let compiled = Minicc.Driver.compile (Minicc.Programs.matmul ~n ~reps) in
  { binary = Core.open_image compiled.Minicc.Driver.image }

let variants = [ "base"; "fn-count"; "bb-count"; "bb-trace"; "mem-trace" ]

type variant = {
  name : string;
  stop : Rvsim.Machine.stop;
  cycles : int64;
  instret : int64;
  counter : int64;  (** counter total, or records for trace variants *)
  flushes : int;
  points : int;
  dead_alloc : int;
  spilled : int;
  traps : int;
  tramp_bytes : int;
}

type iteration = {
  vs : variant list;
  samples : int;
  profile_ok : bool;
}

let load_run name img =
  let p = Layer.call "sim.load" (fun () -> Rvsim.Loader.load img) in
  Layer.call ("sim.run." ^ name) (fun () -> Sim.exec p)

let counter_variant (s : setup) name points =
  let m, c =
    Layer.call "patch.points" (fun () ->
        let m = Core.create_mutator s.binary in
        let c = Core.create_counter m "perfbench_count" in
        List.iter (fun pt -> Core.insert m pt [ Codegen_api.Snippet.incr c ]) (points ());
        (m, c))
  in
  let img = Layer.call "patch.rewrite" (fun () -> Core.rewrite m) in
  let r = load_run name img in
  {
    name;
    stop = r.Sim.stop;
    cycles = r.Sim.cycles;
    instret = r.Sim.instret;
    counter = Sim.read_var r c;
    flushes = 0;
    points = (Core.stats m).Patch_api.Rewriter.n_points;
    dead_alloc = (Core.stats m).Patch_api.Rewriter.n_dead_alloc;
    spilled = (Core.stats m).Patch_api.Rewriter.n_spilled;
    traps = Patch_api.Rewriter.n_traps (Core.stats m);
    tramp_bytes = Sim.tramp_bytes img;
  }

let trace_variant (s : setup) name opts =
  let m, ring, n =
    Layer.call "patch.points" (fun () ->
        let m = Core.create_mutator s.binary in
        let ring = Trace_api.Ring.create m.Core.rw ~capacity:ring_capacity in
        let n =
          Trace_api.Tracer.instrument m.Core.rw s.binary.Core.cfg ~ring ~funcs:[ func ]
            opts
        in
        (m, ring, n))
  in
  let img = Layer.call "patch.rewrite" (fun () -> Core.rewrite m) in
  let p = Layer.call "sim.load" (fun () -> Rvsim.Loader.load img) in
  let sink = Trace_api.Sink.create ring in
  Trace_api.Sink.install sink p.Rvsim.Loader.os;
  let r = Layer.call ("sim.run." ^ name) (fun () -> Sim.exec p) in
  Layer.call "trace.drain" (fun () -> Trace_api.Sink.drain sink r.Sim.machine);
  let records = Layer.call "trace.decode" (fun () -> Trace_api.Sink.records sink) in
  {
    name;
    stop = r.Sim.stop;
    cycles = r.Sim.cycles;
    instret = r.Sim.instret;
    counter = Int64.of_int (List.length records);
    flushes = Trace_api.Sink.flushes sink;
    points = n;
    dead_alloc = (Core.stats m).Patch_api.Rewriter.n_dead_alloc;
    spilled = (Core.stats m).Patch_api.Rewriter.n_spilled;
    traps = Patch_api.Rewriter.n_traps (Core.stats m);
    tramp_bytes = Sim.tramp_bytes img;
  }

let iteration (s : setup) : iteration =
  let base = load_run "base" (Core.image s.binary) in
  let base =
    { name = "base"; stop = base.Sim.stop; cycles = base.Sim.cycles; instret = base.Sim.instret;
      counter = 0L; flushes = 0; points = 0; dead_alloc = 0;
      spilled = 0; traps = 0; tramp_bytes = 0 }
  in
  let fn_count =
    counter_variant s "fn-count" (fun () -> [ Core.at_entry s.binary func ])
  in
  let bb_count = counter_variant s "bb-count" (fun () -> Core.at_blocks s.binary func) in
  let bb_trace = trace_variant s "bb-trace" Trace_api.Tracer.coverage_only in
  let mem_trace = trace_variant s "mem-trace" Trace_api.Tracer.mem_only in
  let prof =
    Layer.call "perf.profile" (fun () ->
        Perf_api.Profiler.profile
          ~config:
            { Perf_api.Profiler.default_config with Perf_api.Profiler.period = profile_period }
          s.binary)
  in
  {
    vs = [ base; fn_count; bb_count; bb_trace; mem_trace ];
    samples = prof.Perf_api.Profiler.r_n_samples;
    profile_ok = prof.Perf_api.Profiler.r_stop = Rvsim.Machine.Exited 0;
  }

let find it name = List.find (fun v -> v.name = name) it.vs

let overhead_pct it name =
  let b = Int64.to_float (find it "base").cycles in
  100. *. (Int64.to_float (find it name).cycles -. b) /. b

(* References from the interpreter hook on the original binary. *)
type reference = { entries : int; block_entries : int; mem_accesses : int; ref_run : Sim.run }

let reference (s : setup) : reference =
  let f = Core.find_function s.binary func in
  let starts = Parse_api.Cfg.blocks_of s.binary.Core.cfg f |> List.map (fun b -> b.Parse_api.Cfg.b_start) in
  let sym = Option.get (Symtab.find_symbol s.binary.Core.symtab func) in
  let lo = sym.Elfkit.Types.sym_value in
  (* minicc emits size-0 function symbols: the next symbol bounds it *)
  let hi =
    if sym.Elfkit.Types.sym_size > 0L then Int64.add lo sym.Elfkit.Types.sym_size
    else
      List.fold_left
        (fun hi (f : Elfkit.Types.symbol) ->
          let v = f.Elfkit.Types.sym_value in
          if v > lo && v < hi then v else hi)
        Int64.max_int
        (Symtab.functions s.binary.Core.symtab)
  in
  let entries = ref 0 and blocks = ref 0 and mem = ref 0 in
  let r =
    Sim.hooked (Core.image s.binary) (fun pc insn ->
        if pc = lo then incr entries;
        if List.mem pc starts then incr blocks;
        let op = insn.Riscv.Insn.op in
        if pc >= lo && pc < hi && (Riscv.Op.is_load op || Riscv.Op.is_store op) then incr mem)
  in
  { entries = !entries; block_entries = !blocks; mem_accesses = !mem; ref_run = r }

(* Failed checks of one iteration against the reference, as messages. *)
let check (rf : reference) (it : iteration) : string list =
  let fails = ref [] in
  let need ok msg = if not ok then fails := msg :: !fails in
  List.iter
    (fun v ->
      need
        (v.stop = Rvsim.Machine.Exited 0)
        (Format.asprintf "%s: stopped with %a" v.name Rvsim.Machine.pp_stop v.stop))
    it.vs;
  need it.profile_ok "profile run did not exit 0";
  need (it.samples > 0) "profile took no samples";
  let base = find it "base" in
  need
    (base.instret = rf.ref_run.Sim.instret)
    "base instret differs between the block engine and the interpreter";
  let eq name want =
    let v = find it name in
    need (v.counter = Int64.of_int want)
      (Printf.sprintf "%s: %Ld counted, reference %d" name v.counter want)
  in
  eq "fn-count" rf.entries;
  eq "bb-count" rf.block_entries;
  eq "bb-trace" rf.block_entries;
  eq "mem-trace" rf.mem_accesses;
  List.rev !fails
