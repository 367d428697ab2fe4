(* The rewrite round-trip checker: instrumentation must be invisible.

   A mutatee is compiled, run clean under rvsim, then instrumented with
   an effect-free snippet (a counter increment into the patch data area)
   at every basic block of every parsed function, rewritten through
   Patch.Rewriter, and run again.  The two runs must agree on

     - the stop reason (exit code, fault, ...);
     - everything written to stdout;
     - the final contents of the mutatee's own writable data sections.

   Only the patch area (trampolines, springboards, instrumentation
   variables) may differ — that is the paper's transparency contract for
   binary rewriting.  The probe counter is also read back and must be
   nonzero, so a silently-dropped instrumentation pass cannot pass. *)

type result = {
  rt_name : string;
  rt_points : int; (* block points instrumented *)
  rt_counter : int64; (* probe count observed in the rewritten run *)
  rt_diffs : string list; (* divergences; empty = transparent *)
  rt_notes : string list; (* expected differences (e.g. observed time) *)
}

(* A mutatee that reads the cycle CSR (clock_ns) observes architecturally
   visible state that instrumentation legitimately changes — on real
   hardware just as much as under rvsim.  For those, stdout is allowed
   to differ and transparency rests on the stop reason and the data
   sections (matmul's C array lives in .data and is compared in full). *)
let builtins =
  [
    ("fib", false, lazy Minicc.Programs.fib);
    ("calls", false, lazy Minicc.Programs.calls);
    ("switch", false, lazy Minicc.Programs.switch_demo);
    ("mixed", false, lazy Minicc.Programs.mixed);
    ("matmul", true, lazy (Minicc.Programs.matmul ~n:8 ~reps:1));
  ]

let builtin_names = List.map (fun (n, _, _) -> n) builtins

(* Writable allocatable sections of the original image: the state the
   mutatee can legitimately leave behind. *)
let data_sections (img : Elfkit.Types.image) =
  List.filter
    (fun (s : Elfkit.Types.section) ->
      s.Elfkit.Types.s_size > 0
      && s.Elfkit.Types.s_flags land Elfkit.Types.shf_write <> 0
      && s.Elfkit.Types.s_flags land Elfkit.Types.shf_alloc <> 0)
    img.Elfkit.Types.sections

let read_region mem base size =
  Bytes.init size (fun i ->
      Char.chr (Rvsim.Mem.read8 mem (Int64.add base (Int64.of_int i))))

(* Compare an instrumented run against the original: stop reason,
   stdout (a note when the mutatee reads the clock) and data sections. *)
let diff_runs ~reads_clock ~push ~note (img : Elfkit.Types.image) (stop_o, out_o, mem_o)
    (stop_i, out_i, mem_i) =
  let stop_str s = Format.asprintf "%a" Rvsim.Machine.pp_stop s in
  if stop_o <> stop_i then
    push
      (Printf.sprintf "stop differs: original %s, instrumented %s" (stop_str stop_o)
         (stop_str stop_i));
  if out_o <> out_i then
    if reads_clock then
      note
        (Printf.sprintf
           "stdout differs as expected (mutatee observes the cycle CSR): %S vs %S"
           (String.trim out_o) (String.trim out_i))
    else push (Printf.sprintf "stdout differs: original %S, instrumented %S" out_o out_i);
  List.iter
    (fun (s : Elfkit.Types.section) ->
      let a = read_region mem_o s.Elfkit.Types.s_addr s.Elfkit.Types.s_size
      and b = read_region mem_i s.Elfkit.Types.s_addr s.Elfkit.Types.s_size in
      if not (Bytes.equal a b) then begin
        let i = ref 0 in
        while Bytes.get a !i = Bytes.get b !i do incr i done;
        push
          (Printf.sprintf "%s differs at 0x%Lx: original %02x, instrumented %02x"
             s.Elfkit.Types.s_name
             (Int64.add s.Elfkit.Types.s_addr (Int64.of_int !i))
             (Char.code (Bytes.get a !i))
             (Char.code (Bytes.get b !i)))
      end)
    (data_sections img)

let run_image ~max_steps img =
  let p = Rvsim.Loader.load img in
  let stop, out = Rvsim.Loader.run ~max_steps p in
  (p, (stop, out, p.Rvsim.Loader.machine.Rvsim.Machine.mem))

let check ?(max_steps = 20_000_000) ?(reads_clock = false) ~name (src : string)
    : result =
  let compiled = Minicc.Driver.compile src in
  let _, orig = run_image ~max_steps compiled.Minicc.Driver.image in
  let binary = Core.open_image compiled.Minicc.Driver.image in
  let m = Core.create_mutator binary in
  let probe = Core.create_counter m "rvcheck_probe" in
  let points =
    List.concat_map
      (fun (f : Parse_api.Cfg.func) -> Core.at_blocks binary f.Parse_api.Cfg.f_name)
      (Core.functions binary)
  in
  List.iter (fun pt -> Core.insert m pt [ Codegen_api.Snippet.incr probe ]) points;
  let p_i, inst = run_image ~max_steps (Core.rewrite m) in
  let counter =
    Rvsim.Mem.read64 p_i.Rvsim.Loader.machine.Rvsim.Machine.mem
      probe.Codegen_api.Snippet.v_addr
  in
  let diffs = ref [] and notes = ref [] in
  let push d = diffs := d :: !diffs and note n = notes := n :: !notes in
  diff_runs ~reads_clock ~push ~note compiled.Minicc.Driver.image orig inst;
  if counter = 0L && points <> [] then
    push "probe counter is zero: instrumentation never executed";
  {
    rt_name = name;
    rt_points = List.length points;
    rt_counter = counter;
    rt_diffs = List.rev !diffs;
    rt_notes = List.rev !notes;
  }

(* The trace round trip: TraceAPI record snippets (coverage, or one
   record per load/store) planted in every function must be as
   invisible as the counter, and the records the ring delivers must
   equal — in count and in (kind, addr, value) order — what an
   interpreter hook computes on the original binary at the same points
   (block entries; each access's rs1 + imm before it executes).  The
   cycle timestamps are only required to be monotone.  With
   [~use_dead_regs:false] every snippet runs inside a spill frame, which
   must not shift the sp-relative addresses it records. *)
let check_trace ?(max_steps = 20_000_000) ?(reads_clock = false) ?use_dead_regs ~name
    ~(mode : [ `Coverage | `Mem ]) (src : string) : result =
  let compiled = Minicc.Driver.compile src in
  let img = compiled.Minicc.Driver.image in
  let _, orig = run_image ~max_steps img in
  let binary = Core.open_image img in
  let cfg = binary.Core.cfg in
  let m = Core.create_mutator ?use_dead_regs binary in
  let ring = Trace_api.Ring.create m.Core.rw ~capacity:256 in
  let opts =
    match mode with
    | `Coverage -> Trace_api.Tracer.coverage_only
    | `Mem -> Trace_api.Tracer.mem_only
  in
  let points = Trace_api.Tracer.instrument m.Core.rw cfg ~ring opts in
  (* the reference: the record each planted point emits, keyed by pc *)
  let expect : (int64, Riscv.Insn.t -> int64 array -> Trace_api.Record.kind * int64 * int64) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (f : Parse_api.Cfg.func) ->
      match mode with
      | `Coverage ->
          List.iter
            (fun (pt : Patch_api.Point.t) ->
              Hashtbl.replace expect pt.Patch_api.Point.p_addr (fun _ _ ->
                  (Trace_api.Record.Block, pt.Patch_api.Point.p_block, f.Parse_api.Cfg.f_entry)))
            (Patch_api.Point.block_entries cfg f)
      | `Mem ->
          List.iter
            (fun (b : Parse_api.Cfg.block) ->
              List.iter
                (fun (ins : Instruction.t) ->
                  let op = ins.Instruction.insn.Riscv.Insn.op in
                  if
                    (Riscv.Op.is_load op || Riscv.Op.is_store op)
                    && Patch_api.Point.before_insn cfg ~addr:ins.Instruction.addr <> None
                  then
                    Hashtbl.replace expect ins.Instruction.addr (fun (i : Riscv.Insn.t) regs ->
                        ( (if Riscv.Op.is_store op then Trace_api.Record.Mem_write
                           else Trace_api.Record.Mem_read),
                          Int64.add regs.(i.Riscv.Insn.rs1) i.Riscv.Insn.imm,
                          Int64.of_int (Riscv.Op.access_size op) )))
                b.Parse_api.Cfg.b_insns)
            (Parse_api.Cfg.blocks_of cfg f))
    (Parse_api.Cfg.functions cfg);
  let want = ref [] in
  let p_ref = Rvsim.Loader.load ~engine:Rvsim.Machine.Eng_interp img in
  let regs = p_ref.Rvsim.Loader.machine.Rvsim.Machine.regs in
  p_ref.Rvsim.Loader.machine.Rvsim.Machine.trace <-
    Some
      (fun pc insn ->
        match Hashtbl.find_opt expect pc with
        | Some f -> want := f insn regs :: !want
        | None -> ());
  ignore (Rvsim.Loader.run ~max_steps p_ref);
  let want = List.rev !want in
  let p_i = Rvsim.Loader.load (Core.rewrite m) in
  let sink = Trace_api.Sink.create ring in
  Trace_api.Sink.install sink p_i.Rvsim.Loader.os;
  let stop_i, out_i = Rvsim.Loader.run ~max_steps p_i in
  Trace_api.Sink.drain sink p_i.Rvsim.Loader.machine;
  let got =
    List.map
      (fun (r : Trace_api.Record.t) -> (r.Trace_api.Record.kind, r.Trace_api.Record.addr, r.Trace_api.Record.value))
      (Trace_api.Sink.records sink)
  in
  let diffs = ref [] and notes = ref [] in
  let push d = diffs := d :: !diffs and note n = notes := n :: !notes in
  diff_runs ~reads_clock ~push ~note img orig
    (stop_i, out_i, p_i.Rvsim.Loader.machine.Rvsim.Machine.mem);
  (* a clock-reading mutatee may legitimately behave differently once
     it has printed a different time: then only a note *)
  let report = if reads_clock && out_i <> (let _, o, _ = orig in o) then note else push in
  if List.length got <> List.length want then
    report
      (Printf.sprintf "%d records, the reference has %d" (List.length got) (List.length want));
  (let rec first k = function
     | g :: gs, w :: ws -> if g = w then first (k + 1) (gs, ws) else Some (k, g)
     | g :: _, [] -> Some (k, g)
     | [], _ -> None
   in
   match first 0 (got, want) with
   | Some (k, (kind, addr, value)) ->
       report
         (Printf.sprintf "record %d differs from the reference: %s addr=0x%Lx value=0x%Lx" k
            (Trace_api.Record.kind_name kind) addr value)
   | None -> ());
  if got = [] && points > 0 then push "no records: the trace snippets never ran";
  ignore
    (List.fold_left
       (fun prev (r : Trace_api.Record.t) ->
         if Int64.compare r.Trace_api.Record.cycles prev < 0 then
           push (Printf.sprintf "timestamp %Ld after %Ld" r.Trace_api.Record.cycles prev);
         r.Trace_api.Record.cycles)
       0L (Trace_api.Sink.records sink));
  {
    rt_name =
      (match mode with `Coverage -> name ^ "/bb-trace" | `Mem -> name ^ "/mem-trace")
      ^ if use_dead_regs = Some false then "/spilled" else "";
    rt_points = points;
    rt_counter = Int64.of_int (List.length got);
    rt_diffs = List.rev !diffs;
    rt_notes = List.rev !notes;
  }

let check_builtin ?max_steps name =
  match List.find_opt (fun (n, _, _) -> n = name) builtins with
  | Some (_, reads_clock, src) ->
      check ?max_steps ~reads_clock ~name (Lazy.force src)
  | None -> invalid_arg ("Roundtrip.check_builtin: unknown mutatee " ^ name)

let check_trace_builtin ?max_steps ?use_dead_regs ~mode name =
  match List.find_opt (fun (n, _, _) -> n = name) builtins with
  | Some (_, reads_clock, src) ->
      check_trace ?max_steps ~reads_clock ?use_dead_regs ~name ~mode (Lazy.force src)
  | None -> invalid_arg ("Roundtrip.check_trace_builtin: unknown mutatee " ^ name)

let pp_result fmt (r : result) =
  if r.rt_diffs = [] then
    Format.fprintf fmt "%-8s transparent (%d points, probe=%Ld)@." r.rt_name
      r.rt_points r.rt_counter
  else begin
    Format.fprintf fmt "%-8s NOT transparent (%d points, probe=%Ld)@." r.rt_name
      r.rt_points r.rt_counter;
    List.iter (fun d -> Format.fprintf fmt "  %s@." d) r.rt_diffs
  end;
  List.iter (fun n -> Format.fprintf fmt "  note: %s@." n) r.rt_notes
