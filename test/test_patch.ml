(* PatchAPI end-to-end tests: parse -> insert snippets -> rewrite -> run
   the rewritten binary in the simulator.  Each test checks both that the
   instrumentation observed what it should (counters) and that the
   mutatee's observable behaviour (exit code, output) is unchanged —
   the core correctness property of binary rewriting. *)

open Riscv
open Parse_api
open Codegen_api
open Patch_api

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check64 = Alcotest.(check int64)

let text_base = 0x10000L

let build_symtab ?(funcs = []) items =
  let r = Asm.assemble ~base:text_base items in
  let symbols =
    List.map
      (fun (name, label) ->
        Elfkit.Types.symbol name (Asm.label_addr r label) ~sym_section:".text")
      funcs
  in
  let attrs =
    Elfkit.Attributes.section_of
      { Elfkit.Attributes.empty with arch = Some "rv64imafdc_zicsr_zifencei" }
  in
  let img =
    Elfkit.Types.image ~entry:text_base ~symbols
      ~e_flags:Elfkit.Types.(ef_riscv_rvc lor ef_riscv_float_abi_double)
      [
        Elfkit.Types.section ".text" r.Asm.code ~s_addr:text_base
          ~s_flags:Elfkit.Types.(shf_alloc lor shf_execinstr) ~s_addralign:4;
        attrs;
      ]
  in
  (Symtab.of_image img, r)

(* the standard mutatee: main loops 5 times over work; work branches *)
let mutatee =
  let open Asm in
  [
    Label "main";
    Insn (Build.addi Reg.s0 Reg.zero 5);
    Insn (Build.addi Reg.s1 Reg.zero 0);
    Label "loop";
    Insn (Build.mv Reg.a0 Reg.s1);
    Call_l "work";
    Insn (Build.mv Reg.s1 Reg.a0);
    Insn (Build.addi Reg.s0 Reg.s0 (-1));
    Br (Op.BNE, Reg.s0, Reg.zero, "loop");
    Insn (Build.mv Reg.a0 Reg.s1);
    J "exit_";
    Label "work";
    Br (Op.BEQ, Reg.a0, Reg.zero, "wz");
    Insn (Build.addi Reg.a0 Reg.a0 2);
    Insn Build.ret;
    Label "wz";
    Insn (Build.addi Reg.a0 Reg.a0 1);
    Insn Build.ret;
    Label "exit_";
    Insn (Build.addi Reg.a7 Reg.zero 93);
    Insn Build.ecall;
  ]

(* work: called 5x with a0 = 0,1,3,5,7 -> returns 1,3,5,7,9; exit code 9 *)
let expected_exit = 9

let run_image img =
  let p = Rvsim.Loader.load img in
  let stop, out = Rvsim.Loader.run p in
  (stop, out, p)

let exit_code = function
  | Rvsim.Machine.Exited c -> c
  | s -> Alcotest.failf "expected exit, got %a" Rvsim.Machine.pp_stop s

let read_var (p : Rvsim.Loader.process) (v : Snippet.var) =
  Rvsim.Mem.read64 p.Rvsim.Loader.machine.Rvsim.Machine.mem v.Snippet.v_addr

let find_func cfg name =
  List.find (fun f -> f.Cfg.f_name = name) (Cfg.functions cfg)

let parse_mutatee ?funcs () =
  let funcs =
    Option.value funcs ~default:[ ("main", "main"); ("work", "work") ]
  in
  let st, r = build_symtab ~funcs mutatee in
  (st, Parser.parse st, r)

(* --- function entry counter ------------------------------------------------ *)

let test_entry_counter () =
  let st, cfg, _ = parse_mutatee () in
  let rw = Rewriter.create st cfg in
  let counter = Rewriter.allocate_var rw "calls" 8 in
  let work = find_func cfg "work" in
  Rewriter.insert rw (Option.get (Point.func_entry cfg work)) [ Snippet.incr counter ];
  let img = Rewriter.rewrite rw in
  let stop, _, p = run_image img in
  checki "exit unchanged" expected_exit (exit_code stop);
  check64 "work called 5 times" 5L (read_var p counter)

let test_uninstrumented_baseline () =
  let st, _, _ = parse_mutatee () in
  let stop, _, _ = run_image st.Symtab.image in
  checki "baseline exit" expected_exit (exit_code stop)

(* --- basic block counters --------------------------------------------------- *)

let test_bb_counters () =
  let st, cfg, _ = parse_mutatee () in
  let rw = Rewriter.create st cfg in
  let work = find_func cfg "work" in
  let total = Rewriter.allocate_var rw "blocks" 8 in
  List.iter
    (fun pt -> Rewriter.insert rw pt [ Snippet.incr total ])
    (Point.block_entries cfg work);
  let img = Rewriter.rewrite rw in
  let stop, _, p = run_image img in
  checki "exit unchanged" expected_exit (exit_code stop);
  (* work executes: entry block 5x, +2 block 4x, wz block 1x = 10 *)
  check64 "block executions" 10L (read_var p total)

let test_exit_and_callsite_counters () =
  let st, cfg, _ = parse_mutatee () in
  let rw = Rewriter.create st cfg in
  let work = find_func cfg "work" in
  let main = find_func cfg "main" in
  let exits = Rewriter.allocate_var rw "exits" 8 in
  let calls = Rewriter.allocate_var rw "callsites" 8 in
  List.iter
    (fun pt -> Rewriter.insert rw pt [ Snippet.incr exits ])
    (Point.func_exits cfg work);
  List.iter
    (fun pt -> Rewriter.insert rw pt [ Snippet.incr calls ])
    (Point.call_sites cfg main);
  let img = Rewriter.rewrite rw in
  let stop, _, p = run_image img in
  checki "exit unchanged" expected_exit (exit_code stop);
  check64 "work returned 5 times" 5L (read_var p exits);
  check64 "call site executed 5 times" 5L (read_var p calls)

(* --- edge and loop instrumentation ------------------------------------------ *)

let test_edge_taken_counter () =
  let st, cfg, _ = parse_mutatee () in
  let rw = Rewriter.create st cfg in
  let work = find_func cfg "work" in
  let taken = Rewriter.allocate_var rw "taken" 8 in
  (* the beq in work's entry block: taken exactly once (first call, a0=0) *)
  let entry_block = Option.get (Cfg.block_at cfg work.Cfg.f_entry) in
  Rewriter.insert rw (Option.get (Point.edge_taken entry_block)) [ Snippet.incr taken ];
  let img = Rewriter.rewrite rw in
  let stop, _, p = run_image img in
  checki "exit unchanged" expected_exit (exit_code stop);
  check64 "taken once" 1L (read_var p taken)

let test_loop_backedge_counter () =
  let st, cfg, _ = parse_mutatee () in
  let rw = Rewriter.create st cfg in
  let main = find_func cfg "main" in
  let back = Rewriter.allocate_var rw "backedges" 8 in
  let pts = Point.loop_backedges cfg main in
  checkb "found a back edge" true (pts <> []);
  List.iter (fun pt -> Rewriter.insert rw pt [ Snippet.incr back ]) pts;
  let img = Rewriter.rewrite rw in
  let stop, _, p = run_image img in
  checki "exit unchanged" expected_exit (exit_code stop);
  (* 5 iterations => the backwards branch is taken 4 times *)
  check64 "back edge count" 4L (read_var p back)


let test_before_insn_point () =
  (* instruction-level points (the lowest-level abstraction): count
     executions of the addi in the middle of work's fallthrough block *)
  let st, cfg, r = parse_mutatee () in
  let rw = Rewriter.create st cfg in
  let c = Rewriter.allocate_var rw "insn" 8 in
  (* the addi a0, a0, 2 sits right after work's beq *)
  let addi_addr = Int64.add (Asm.label_addr r "work") 4L in
  (match Point.before_insn cfg ~addr:addi_addr with
  | Some pt ->
      Alcotest.(check bool) "kind" true (pt.Point.p_kind = Point.Before_insn);
      Rewriter.insert rw pt [ Snippet.incr c ]
  | None -> Alcotest.fail "no point at the addi");
  let img = Rewriter.rewrite rw in
  let stop, _, p = run_image img in
  checki "exit unchanged" expected_exit (exit_code stop);
  (* the +2 path runs on 4 of the 5 calls *)
  check64 "addi executed 4 times" 4L (read_var p c)


(* a While snippet: on each call of work, add a decreasing series
   5+4+3+2+1 = 15 into acc via an instrumentation-side loop *)
let while_snippet ~acc ~k =
  [
    Snippet.Set (k, Snippet.Const 5L);
    Snippet.While
      ( Snippet.Bin (Snippet.Gt, Snippet.Var k, Snippet.Const 0L),
        [
          Snippet.Set (acc, Snippet.Bin (Snippet.Plus, Snippet.Var acc, Snippet.Var k));
          Snippet.Set (k, Snippet.Bin (Snippet.Minus, Snippet.Var k, Snippet.Const 1L));
        ] );
  ]

let test_while_snippet () =
  let st, cfg, _ = parse_mutatee () in
  let rw = Rewriter.create st cfg in
  let acc = Rewriter.allocate_var rw "acc" 8 in
  let k = Rewriter.allocate_var rw "k" 8 in
  let work = find_func cfg "work" in
  Rewriter.insert rw (Option.get (Point.func_entry cfg work)) (while_snippet ~acc ~k);
  let img = Rewriter.rewrite rw in
  let stop, _, p = run_image img in
  checki "exit unchanged" expected_exit (exit_code stop);
  (* 5 calls x 15 *)
  check64 "while accumulated" 75L (read_var p acc)

let test_loop_entry_point () =
  let st, cfg, _ = parse_mutatee () in
  let rw = Rewriter.create st cfg in
  let main = find_func cfg "main" in
  let c = Rewriter.allocate_var rw "loophead" 8 in
  let pts = Point.loop_entries cfg main in
  checki "one loop header" 1 (List.length pts);
  List.iter (fun pt -> Rewriter.insert rw pt [ Snippet.incr c ]) pts;
  let img = Rewriter.rewrite rw in
  let stop, _, p = run_image img in
  checki "exit unchanged" expected_exit (exit_code stop);
  (* header block runs once per iteration *)
  check64 "header executions" 5L (read_var p c)

(* --- springboard strategies --------------------------------------------------- *)

let strategies rw =
  (Rewriter.stats rw).Rewriter.strategies |> List.map snd

let test_near_uses_jal () =
  let st, cfg, _ = parse_mutatee () in
  let rw = Rewriter.create st cfg in
  let work = find_func cfg "work" in
  let c = Rewriter.allocate_var rw "c" 8 in
  Rewriter.insert rw (Option.get (Point.func_entry cfg work)) [ Snippet.incr c ];
  let img = Rewriter.rewrite rw in
  checkb "jal strategy" true (List.mem Rewriter.Sp_jal (strategies rw));
  let stop, _, p = run_image img in
  checki "exit" expected_exit (exit_code stop);
  check64 "count" 5L (read_var p c)

let test_far_uses_auipc_jalr () =
  let st, cfg, _ = parse_mutatee () in
  (* trampolines 16MB away: out of jal range.  main's entry block is
     8 bytes, so the two-instruction springboard fits. *)
  let rw = Rewriter.create ~tramp_base:0x1000000L st cfg in
  let main = find_func cfg "main" in
  let c = Rewriter.allocate_var rw "c" 8 in
  Rewriter.insert rw (Option.get (Point.func_entry cfg main)) [ Snippet.incr c ];
  let img = Rewriter.rewrite rw in
  checkb "auipc+jalr strategy" true
    (List.mem Rewriter.Sp_auipc_jalr (strategies rw));
  let stop, _, p = run_image img in
  checki "exit" expected_exit (exit_code stop);
  check64 "count" 1L (read_var p c)

let test_tiny_block_trap () =
  (* a function that is a single 2-byte c.jr ra, with far trampolines:
     only the 2-byte trap springboard fits (paper §3.1.2 worst case) *)
  let open Asm in
  let c_ret =
    let hw = Option.get (Encode.compress Build.ret) in
    let b = Bytes.create 2 in
    Bytes.set_uint16_le b 0 hw;
    Raw (Bytes.to_string b)
  in
  let prog =
    [
      Label "main";
      Call_l "tiny";
      Call_l "tiny";
      Insn (Build.addi Reg.a0 Reg.zero 0);
      Insn (Build.addi Reg.a7 Reg.zero 93);
      Insn Build.ecall;
      Label "tiny";
      c_ret;
    ]
  in
  let st, _ = build_symtab ~funcs:[ ("main", "main"); ("tiny", "tiny") ] prog in
  let cfg = Parser.parse st in
  let rw = Rewriter.create ~tramp_base:0x1000000L st cfg in
  let tiny = find_func cfg "tiny" in
  let c = Rewriter.allocate_var rw "c" 8 in
  Rewriter.insert rw (Option.get (Point.func_entry cfg tiny)) [ Snippet.incr c ];
  let img = Rewriter.rewrite rw in
  checkb "trap strategy" true (List.mem Rewriter.Sp_trap (strategies rw));
  let stop, _, p = run_image img in
  checki "exit" 0 (exit_code stop);
  check64 "tiny called twice" 2L (read_var p c)


let test_instrument_unresolved_indirect_block () =
  (* a block that ends in an unresolvable jalr can still be instrumented:
     the relocated jalr executes unchanged inside the trampoline *)
  let open Asm in
  let prog =
    [
      Label "main";
      La (Reg.t0, "tbl");
      Insn (Build.ld Reg.t1 0 Reg.t0) (* target loaded from memory *);
      Insn (Build.jr Reg.t1);
      Label "dest";
      Insn (Build.addi Reg.a0 Reg.zero 7);
      Insn (Build.addi Reg.a7 Reg.zero 93);
      Insn Build.ecall;
    ]
  in
  (* two-phase: learn dest's address, embed it in .data *)
  let r0 =
    Asm.assemble ~base:text_base
      ~symbols:(function "tbl" -> Some 0x20000L | _ -> None)
      prog
  in
  let data = Bytes.create 8 in
  Bytes.set_int64_le data 0 (Asm.label_addr r0 "dest");
  let r =
    Asm.assemble ~base:text_base
      ~symbols:(function "tbl" -> Some 0x20000L | _ -> None)
      prog
  in
  let img =
    Elfkit.Types.image ~entry:text_base
      ~symbols:[ Elfkit.Types.symbol "main" text_base ~sym_section:".text" ]
      [
        Elfkit.Types.section ".text" r.Asm.code ~s_addr:text_base
          ~s_flags:Elfkit.Types.(shf_alloc lor shf_execinstr);
        Elfkit.Types.section ".data" data ~s_addr:0x20000L
          ~s_flags:Elfkit.Types.(shf_alloc lor shf_write);
      ]
  in
  let st = Symtab.of_image img in
  let cfg = Parser.parse st in
  let rw = Rewriter.create st cfg in
  let c = Rewriter.allocate_var rw "c" 8 in
  let main = find_func cfg "main" in
  (* the entry block ends with the unresolved jr: instrument it anyway *)
  Rewriter.insert rw (Option.get (Point.func_entry cfg main)) [ Snippet.incr c ];
  let img' = Rewriter.rewrite rw in
  let stop, _, p = run_image img' in
  checki "exit via indirect" 7 (exit_code stop);
  check64 "counted" 1L (read_var p c)


let test_tiny_block_cj () =
  (* a 2-byte function with a trampoline within +-2KB: the compressed c.j
     springboard (the preferred choice of paper 3.1.2 for tiny blocks) *)
  let open Asm in
  let c_ret =
    let hw = Option.get (Encode.compress Build.ret) in
    let b = Bytes.create 2 in
    Bytes.set_uint16_le b 0 hw;
    Raw (Bytes.to_string b)
  in
  let prog =
    [
      Label "main";
      Call_l "tiny";
      Call_l "tiny";
      Call_l "tiny";
      Insn (Build.addi Reg.a0 Reg.zero 0);
      Insn (Build.addi Reg.a7 Reg.zero 93);
      Insn Build.ecall;
      Label "tiny";
      c_ret;
    ]
  in
  let st, _ = build_symtab ~funcs:[ ("main", "main"); ("tiny", "tiny") ] prog in
  let cfg = Parser.parse st in
  (* place the patch area just past the (tiny) text section *)
  let rw = Rewriter.create ~tramp_base:0x10200L st cfg in
  let tiny = find_func cfg "tiny" in
  let c = Rewriter.allocate_var rw "c" 8 in
  Rewriter.insert rw (Option.get (Point.func_entry cfg tiny)) [ Snippet.incr c ];
  let img = Rewriter.rewrite rw in
  checkb "c.j strategy" true (List.mem Rewriter.Sp_cj (strategies rw));
  let stop, _, p = run_image img in
  checki "exit" 0 (exit_code stop);
  check64 "tiny counted thrice" 3L (read_var p c)

(* --- dead registers vs spilling ---------------------------------------------- *)

let test_dead_reg_allocation_stats () =
  let st, cfg, _ = parse_mutatee () in
  let rw = Rewriter.create st cfg in
  let work = find_func cfg "work" in
  let c = Rewriter.allocate_var rw "c" 8 in
  List.iter
    (fun pt -> Rewriter.insert rw pt [ Snippet.incr c ])
    (Point.block_entries cfg work);
  let img = Rewriter.rewrite rw in
  let s = Rewriter.stats rw in
  checkb "some dead-register allocations" true (s.Rewriter.n_dead_alloc > 0);
  let stop, _, p = run_image img in
  checki "exit" expected_exit (exit_code stop);
  check64 "count" 10L (read_var p c)

let test_spill_mode_still_correct () =
  let st, cfg, _ = parse_mutatee () in
  let rw = Rewriter.create ~use_dead_regs:false st cfg in
  let work = find_func cfg "work" in
  let c = Rewriter.allocate_var rw "c" 8 in
  List.iter
    (fun pt -> Rewriter.insert rw pt [ Snippet.incr c ])
    (Point.block_entries cfg work);
  let img = Rewriter.rewrite rw in
  let s = Rewriter.stats rw in
  checki "everything spilled" s.Rewriter.n_points s.Rewriter.n_spilled;
  checki "nothing dead-allocated" 0 s.Rewriter.n_dead_alloc;
  let stop, _, p = run_image img in
  checki "exit" expected_exit (exit_code stop);
  check64 "count" 10L (read_var p c)

(* --- richer snippets ----------------------------------------------------------- *)

let test_conditional_snippet () =
  let st, cfg, _ = parse_mutatee () in
  let rw = Rewriter.create st cfg in
  let work = find_func cfg "work" in
  let calls = Rewriter.allocate_var rw "calls" 8 in
  let early = Rewriter.allocate_var rw "early" 8 in
  (* early counts only the first 3 calls *)
  Rewriter.insert rw
    (Option.get (Point.func_entry cfg work))
    [
      Snippet.incr calls;
      Snippet.If
        ( Snippet.Bin (Snippet.Le, Snippet.Var calls, Snippet.Const 3L),
          [ Snippet.incr early ],
          [] );
    ];
  let img = Rewriter.rewrite rw in
  let stop, _, p = run_image img in
  checki "exit" expected_exit (exit_code stop);
  check64 "calls" 5L (read_var p calls);
  check64 "early" 3L (read_var p early)

let test_param_snippet () =
  let st, cfg, _ = parse_mutatee () in
  let rw = Rewriter.create st cfg in
  let work = find_func cfg "work" in
  let sum = Rewriter.allocate_var rw "argsum" 8 in
  (* accumulate work's first argument: 0+1+3+5+7 = 16 *)
  Rewriter.insert rw
    (Option.get (Point.func_entry cfg work))
    [ Snippet.Set (sum, Snippet.Bin (Snippet.Plus, Snippet.Var sum, Snippet.Param 0)) ];
  let img = Rewriter.rewrite rw in
  let stop, _, p = run_image img in
  checki "exit" expected_exit (exit_code stop);
  check64 "sum of args" 16L (read_var p sum)

let test_call_snippet () =
  (* mutatee has a helper that bumps s11 is too invasive; instead call a
     mutatee function that increments a counter held in a1... simplest
     observable: the instrumentation calls `work`-like leaf `bump` that
     adds 1 to a memory cell passed in a0 — but snippet Call saves/
     restores registers, so use a leaf that writes an absolute cell. *)
  let open Asm in
  let cell = 0x30000L in
  let prog =
    [
      Label "main";
      Insn (Build.addi Reg.a0 Reg.zero 0);
      Call_l "work";
      Call_l "work";
      Insn (Build.addi Reg.a7 Reg.zero 93);
      Insn Build.ecall;
      Label "work";
      Insn (Build.addi Reg.a0 Reg.a0 1);
      Insn Build.ret;
      Label "bump";
      Li (Reg.t0, cell);
      Insn (Build.ld Reg.t1 0 Reg.t0);
      Insn (Build.addi Reg.t1 Reg.t1 1);
      Insn (Build.sd Reg.t1 0 Reg.t0);
      Insn Build.ret;
    ]
  in
  let st, r =
    build_symtab
      ~funcs:[ ("main", "main"); ("work", "work"); ("bump", "bump") ]
      prog
  in
  let cfg = Parser.parse st in
  let rw = Rewriter.create st cfg in
  let work = find_func cfg "work" in
  let bump_addr = Asm.label_addr r "bump" in
  Rewriter.insert rw
    (Option.get (Point.func_entry cfg work))
    [ Snippet.Call (bump_addr, []) ];
  let img = Rewriter.rewrite rw in
  let stop, _, p = run_image img in
  checki "exit" 2 (exit_code stop);
  check64 "bump ran twice" 2L
    (Rvsim.Mem.read64 p.Rvsim.Loader.machine.Rvsim.Machine.mem cell)

(* --- codegen error paths ------------------------------------------------------ *)

let test_extension_awareness () =
  (* a profile without M must refuse to generate a division snippet *)
  let ctx =
    Codegen.create_ctx ~profile:Ext.rv64i
      ~scratch:[ Reg.t0; Reg.t1; Reg.t2 ] ()
  in
  checkb "divide rejected without M" true
    (match
       Codegen.generate ctx
         [ Snippet.Store (8, Snippet.Const 0x100L,
             Snippet.Bin (Snippet.Divide, Snippet.Const 6L, Snippet.Const 2L)) ]
     with
    | exception Codegen.Codegen_error _ -> true
    | _ -> false);
  (* and with M present it generates *)
  let ctx2 =
    Codegen.create_ctx ~profile:Ext.rv64gc
      ~scratch:[ Reg.t0; Reg.t1; Reg.t2 ] ()
  in
  checkb "divide ok with M" true
    (Codegen.generate ctx2
       [ Snippet.Store (8, Snippet.Const 0x100L,
           Snippet.Bin (Snippet.Divide, Snippet.Const 6L, Snippet.Const 2L)) ]
    <> [])

let test_scratch_exhaustion () =
  let ctx = Codegen.create_ctx ~profile:Ext.rv64gc ~scratch:[ Reg.t0 ] () in
  checkb "too few scratch regs rejected" true
    (match Codegen.generate ctx [ Snippet.incr { Snippet.v_name = "x"; v_addr = 0x100L; v_size = 8 } ] with
    | exception Codegen.Codegen_error _ -> true
    | _ -> false)

(* [Snippet.regs_needed] is exact: the lowering succeeds with exactly
   that many scratch registers, is refused one fewer, and writes
   exactly that many distinct ones. *)
let scratch_pool = Reg.temp_regs @ List.map Reg.x [ 18; 19; 20; 21; 22 ] (* s2-s6 *)

let written scratch items =
  List.concat_map
    (function
      | Asm.Insn i -> Insn.defs i
      | Asm.Li (rd, _) | Asm.La (rd, _) -> [ rd ]
      | _ -> [])
    items
  |> List.filter (fun r -> List.mem r scratch)
  |> List.sort_uniq compare

let check_exact name ~want stmts =
  let n = Snippet.regs_needed stmts in
  checki (name ^ ": regs_needed") want n;
  let pool = List.filter (fun r -> not (List.mem r (Snippet.reads stmts))) scratch_pool in
  let gen k =
    let scratch = List.filteri (fun j _ -> j < k) pool in
    (scratch, Codegen.generate (Codegen.create_ctx ~profile:Ext.rv64gc ~scratch ()) stmts)
  in
  let scratch, items = gen n in
  checki (name ^ ": distinct scratch written") n (List.length (written scratch items));
  if n > 0 then
    checkb (name ^ ": one fewer is refused") true
      (match gen (n - 1) with exception Codegen.Codegen_error _ -> true | _ -> false)

let test_regs_needed_exact () =
  let st, cfg, _ = parse_mutatee () in
  let rw = Rewriter.create st cfg in
  let acc = Rewriter.allocate_var rw "acc" 8 in
  let k = Rewriter.allocate_var rw "k" 8 in
  check_exact "incr" ~want:2 [ Snippet.incr acc ];
  check_exact "while" ~want:2 (while_snippet ~acc ~k);
  let ring = Trace_api.Ring.create rw ~capacity:1024 in
  List.iter
    (fun (kind, addr, value) ->
      check_exact
        ("ring " ^ Trace_api.Record.kind_name kind)
        ~want:4
        (Trace_api.Ring.emit ring ~kind ~addr ~value))
    Snippet.
      [
        (Trace_api.Record.Block, Const 0x10230L, Const 0x10200L);
        (Trace_api.Record.Call, Const 0x10400L, Const 0x10234L);
        (Trace_api.Record.Ret, Const 0x10200L, Const 0x1029cL);
        (Trace_api.Record.Mem_read, Bin (Plus, Reg Reg.sp, Const 40L), Const 8L);
        (Trace_api.Record.Mem_write, Bin (Plus, Reg Reg.a5, Const (-2048L)), Const 4L);
        (Trace_api.Record.Marker, Const 7L, Param 0);
      ]

(* The lowered hot paths: the counter is lui; ld; addi; sd and a memory
   record's no-flush path is 19 instructions. *)
let test_hot_path_listing () =
  let st, cfg, _ = parse_mutatee () in
  let rw = Rewriter.create st cfg in
  let c = Rewriter.allocate_var rw "c" 8 in
  let ring = Trace_api.Ring.create rw ~capacity:1024 in
  let lower stmts =
    let scratch = List.filteri (fun j _ -> j < Snippet.regs_needed stmts) scratch_pool in
    Codegen.generate (Codegen.create_ctx ~profile:Ext.rv64gc ~scratch ()) stmts
  in
  let mnemonic (i : Insn.t) =
    if i.Insn.op = Op.ADDI && i.Insn.rs1 = 0 then "li" else Op.mnemonic i.Insn.op
  in
  let ops items =
    List.concat_map
      (function
        | Asm.Insn i -> [ mnemonic i ]
        | Asm.Li (rd, v) -> List.map mnemonic (Build.li rd v)
        | Asm.Br (op, _, _, _) -> [ Op.mnemonic op ]
        | _ -> [])
      items
  in
  Alcotest.(check (list string))
    "counter" [ "lui"; "ld"; "addi"; "sd" ]
    (ops (lower [ Snippet.incr c ]));
  let record =
    lower
      (Trace_api.Ring.emit ring ~kind:Trace_api.Record.Mem_read
         ~addr:Snippet.(Bin (Plus, Reg Reg.sp, Const 40L))
         ~value:(Snippet.Const 8L))
  in
  let rec upto_branch = function
    | [] -> []
    | x :: rest -> if String.length x > 1 && x.[0] = 'b' then [ x ] else x :: upto_branch rest
  in
  Alcotest.(check (list string))
    "mem record hot path"
    [ "lui"; "ld"; "andi"; "slli"; "add"; "li"; "sd"; "addi"; "sd"; "li"; "sd";
      "csrrs"; "sd"; "addi"; "sd"; "ld"; "sub"; "li"; "blt" ]
    (upto_branch (ops record))

(* A constant address just below 2^31: its lui high part would be
   0x80000 (sign-extended to 0xffffffff80000000), so it must not take
   the lui + folded-offset form. *)
let test_high_constant_address () =
  let v = { Snippet.v_name = "hi"; v_addr = 0x7FFFF800L; v_size = 8 } in
  let items =
    Codegen.generate
      (Codegen.create_ctx ~profile:Ext.rv64gc ~scratch:[ Reg.t0; Reg.t1 ] ())
      [ Snippet.Set (v, Snippet.Const 5L) ]
  in
  let m = Rvsim.Machine.create () in
  let r = Asm.assemble ~base:0x10000L ~symbols:(fun _ -> None) (items @ [ Asm.Insn Build.ebreak ]) in
  Rvsim.Mem.write_bytes m.Rvsim.Machine.mem 0x10000L r.Asm.code;
  ignore (Rvsim.Machine.add_code_region m ~base:0x10000L ~size:(Bytes.length r.Asm.code));
  m.Rvsim.Machine.pc <- 0x10000L;
  ignore (Rvsim.Machine.run ~max_steps:100 m);
  check64 "stored at 0x7ffff800" 5L (Rvsim.Mem.read64 m.Rvsim.Machine.mem 0x7FFFF800L)

let () =
  Alcotest.run "patch"
    [
      ( "counters",
        [
          Alcotest.test_case "baseline" `Quick test_uninstrumented_baseline;
          Alcotest.test_case "function entry" `Quick test_entry_counter;
          Alcotest.test_case "basic blocks" `Quick test_bb_counters;
          Alcotest.test_case "exits and call sites" `Quick
            test_exit_and_callsite_counters;
        ] );
      ( "edges",
        [
          Alcotest.test_case "taken edge" `Quick test_edge_taken_counter;
          Alcotest.test_case "loop back edge" `Quick test_loop_backedge_counter;
          Alcotest.test_case "before-instruction point" `Quick
            test_before_insn_point;
        ] );
      ( "springboards",
        [
          Alcotest.test_case "near: jal" `Quick test_near_uses_jal;
          Alcotest.test_case "far: auipc+jalr" `Quick test_far_uses_auipc_jalr;
          Alcotest.test_case "tiny block: trap" `Quick test_tiny_block_trap;
          Alcotest.test_case "tiny block near: c.j" `Quick test_tiny_block_cj;
          Alcotest.test_case "unresolved-indirect block" `Quick
            test_instrument_unresolved_indirect_block;
        ] );
      ( "registers",
        [
          Alcotest.test_case "dead-register allocation" `Quick
            test_dead_reg_allocation_stats;
          Alcotest.test_case "forced spilling" `Quick test_spill_mode_still_correct;
        ] );
      ( "snippets",
        [
          Alcotest.test_case "conditional" `Quick test_conditional_snippet;
          Alcotest.test_case "parameter access" `Quick test_param_snippet;
          Alcotest.test_case "function call" `Quick test_call_snippet;
          Alcotest.test_case "while loop" `Quick test_while_snippet;
          Alcotest.test_case "loop entry point" `Quick test_loop_entry_point;
        ] );
      ( "codegen-errors",
        [
          Alcotest.test_case "extension awareness" `Quick test_extension_awareness;
          Alcotest.test_case "scratch exhaustion" `Quick test_scratch_exhaustion;
          Alcotest.test_case "regs_needed exact" `Quick test_regs_needed_exact;
          Alcotest.test_case "hot-path listing" `Quick test_hot_path_listing;
          Alcotest.test_case "address below 2^31" `Quick test_high_constant_address;
        ] );
    ]
