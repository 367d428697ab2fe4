(* Symbolic-verifier tests: term normalization, the symbolic executor
   against straight-line code, end-to-end equivalence of healthy
   rewrites, and — the point of the tier — each seeded wrong-rewrite
   class that the structural verifier provably cannot flag must be
   caught symbolically. *)

open Riscv
open Parse_api
open Codegen_api
open Patch_api
open Verify_api

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- term normalization --------------------------------------------------- *)

let test_term_fold () =
  let open Sailsem.Ir in
  let a = Sterm.Init "x10" in
  checkb "sp-16+16 folds away" true
    (Sterm.equal
       (Sterm.binop Add (Sterm.binop Add a (Sterm.Const (-16L))) (Sterm.Const 16L))
       a);
  checkb "const folding uses the concrete evaluator" true
    (Sterm.equal
       (Sterm.binop Mul (Sterm.Const 6L) (Sterm.Const 7L))
       (Sterm.Const 42L));
  checkb "x/0 stays symbolic instead of raising" true
    (match Sterm.binop DivS a (Sterm.Const 0L) with
    | Sterm.Bin (DivS, _, _) -> true
    | _ -> false);
  checkb "x ^ x = 0" true
    (Sterm.equal (Sterm.binop Xor a a) (Sterm.Const 0L));
  (* bne canonicalizes onto beq's atom so relaxed inversions meet *)
  let b = Sterm.Init "x11" in
  let atom_eq, pol_eq = Symexec.canon_cond (Sterm.binop Eq a b) in
  let atom_ne, pol_ne = Symexec.canon_cond (Sterm.binop Ne a b) in
  checkb "eq/ne share one atom" true (Sterm.equal atom_eq atom_ne);
  checkb "with opposite polarity" true (pol_eq <> pol_ne)

let test_term_memory () =
  let open Sailsem.Ir in
  let sp = Sterm.Init "x2" in
  let slot k = Sterm.binop Add sp (Sterm.Const (Int64.of_int k)) in
  let m =
    Sterm.Store
      {
        prev = Sterm.Store { prev = Sterm.Mem_init; width = 64; addr = slot 0; value = Sterm.Init "x8" };
        width = 64;
        addr = slot 8;
        value = Sterm.Init "x9";
      }
  in
  checkb "load resolves through a disjoint slot" true
    (Sterm.equal (Sterm.read 64 m (slot 0)) (Sterm.Init "x8"));
  checkb "load of the top slot" true
    (Sterm.equal (Sterm.read 64 m (slot 8)) (Sterm.Init "x9"));
  (* unknown alias: distinct symbolic bases stay a Sel *)
  checkb "unknown alias stays symbolic" true
    (match Sterm.read 64 m (Sterm.Init "x10") with
    | Sterm.Sel _ -> true
    | _ -> false)

let test_term_bounds () =
  let open Sailsem.Ir in
  let widx = Sterm.Sel (64, Sterm.Mem_init, Sterm.Const 0x301000L) in
  let slot k =
    Sterm.binop Add
      (Sterm.binop Shl (Sterm.binop And widx (Sterm.Const 1023L)) (Sterm.Const 5L))
      (Sterm.Const (Int64.add 0x301020L (Int64.of_int k)))
  in
  checkb "ring slot bounded" true
    (Sterm.bounds (slot 24) = Some (0x301038L, Int64.add 0x301038L (Int64.of_int (1023 * 32))));
  checkb "last slot's last word inside the ring" true
    (Sterm.within ~lo:0x301000L ~hi:(Int64.add 0x301020L 32768L) (slot 24) 8);
  checkb "one byte past the ring is not" false
    (Sterm.within ~lo:0x301000L ~hi:(Int64.add 0x301020L 32767L) (slot 24) 8);
  checkb "an unmasked index is unbounded" true
    (Sterm.bounds (Sterm.binop Add (Sterm.binop Shl widx (Sterm.Const 5L)) (Sterm.Const 8L))
    = None);
  checkb "a negative mask is not a bound" true
    (Sterm.bounds (Sterm.binop And widx (Sterm.Const (-8L))) = None)

(* --- symbolic executor on straight-line code ------------------------------ *)

let exec_items items =
  let r = Asm.assemble ~base:0x1000L ~symbols:(fun _ -> None) items in
  let code pc =
    Instruction.decode ~base:0x1000L r.Asm.code
      ~pos:(Int64.to_int (Int64.sub pc 0x1000L))
  in
  let hi = Int64.add 0x1000L (Int64.of_int (Bytes.length r.Asm.code)) in
  Symexec.run ~code
    ~in_domain:(fun pc -> Int64.compare pc 0x1000L >= 0 && Int64.compare pc hi < 0)
    ~start:0x1000L Symstate.init

let test_symexec_straightline () =
  let open Asm in
  let r =
    exec_items
      [
        Insn (Build.addi Reg.t0 Reg.zero 5);
        Insn (Build.slli Reg.t0 Reg.t0 4);
        Insn (Build.addi Reg.a0 Reg.a0 7);
      ]
  in
  (match r.Symexec.paths with
  | [ p ] ->
      checkb "t0 = 80" true
        (Sterm.equal (Symstate.get_x p.Symexec.p_state Reg.t0) (Sterm.Const 80L));
      checkb "a0 = a0_0 + 7" true
        (Sterm.equal
           (Symstate.get_x p.Symexec.p_state Reg.a0)
           (Sterm.binop Sailsem.Ir.Add (Sterm.Init "x10") (Sterm.Const 7L)))
  | l -> Alcotest.failf "expected 1 path, got %d" (List.length l));
  checki "three steps" 3 r.Symexec.steps

let test_symexec_branch_forks () =
  let open Asm in
  let r =
    exec_items
      [
        Br (Op.BEQ, Reg.a0, Reg.a1, "skip");
        Insn (Build.addi Reg.a2 Reg.a2 1);
        Label "skip";
        Insn (Build.addi Reg.a3 Reg.a3 1);
      ]
  in
  checki "symbolic branch forks into two paths" 2 (List.length r.Symexec.paths)

(* Raising sp pops the frame below it: those stores are dead, so they
   leave the journal and stop shadowing later loads of other memory. *)
let test_symexec_frame_pop () =
  let open Asm in
  let r =
    exec_items
      [
        Insn (Build.sd Reg.a3 8 Reg.sp);
        Insn (Build.addi Reg.sp Reg.sp (-16));
        Insn (Build.sd Reg.a0 0 Reg.sp);
        Insn (Build.ld Reg.a0 0 Reg.sp);
        Insn (Build.addi Reg.sp Reg.sp 16);
        Insn (Build.lui Reg.t0 0x300);
        Insn (Build.ld Reg.a2 0 Reg.t0);
      ]
  in
  match r.Symexec.paths with
  | [ p ] ->
      let st = p.Symexec.p_state in
      checki "only the store above sp stays journaled" 1
        (List.length (Symstate.store_journal st));
      checkb "a0 restored from the frame" true
        (Sterm.equal (Symstate.get_x st Reg.a0) (Sterm.Init "x10"));
      checkb "an absolute load only sees the live store" true
        (match Symstate.get_x st Reg.a2 with
        | Sterm.Sel (64, Sterm.Store { prev = Sterm.Mem_init; _ }, _) -> true
        | _ -> false)
  | l -> Alcotest.failf "expected 1 path, got %d" (List.length l)

let test_symexec_store_load () =
  let open Asm in
  let r =
    exec_items
      [
        Insn (Build.sd Reg.a1 0 Reg.sp);
        Insn (Build.ld Reg.a2 0 Reg.sp);
      ]
  in
  match r.Symexec.paths with
  | [ p ] ->
      checkb "load forwards the store" true
        (Sterm.equal
           (Symstate.get_x p.Symexec.p_state Reg.a2)
           (Symstate.get_x p.Symexec.p_state Reg.a1))
  | l -> Alcotest.failf "expected 1 path, got %d" (List.length l)

(* --- healthy rewrite proves ----------------------------------------------- *)

let text_base = 0x10000L
let data_base = 0x20000L

let build_symtab ?(funcs = []) items =
  let r =
    Asm.assemble ~base:text_base
      ~symbols:(function "DATA" -> Some data_base | _ -> None)
      items
  in
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
  let sections =
    [
      Elfkit.Types.section ".text" r.Asm.code ~s_addr:text_base
        ~s_flags:Elfkit.Types.(shf_alloc lor shf_execinstr) ~s_addralign:4;
      attrs;
    ]
  in
  let img =
    Elfkit.Types.image ~entry:text_base ~symbols
      ~e_flags:Elfkit.Types.(ef_riscv_rvc lor ef_riscv_float_abi_double)
      sections
  in
  (Symtab.of_image img, r)

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

let find_func cfg name =
  List.find (fun f -> f.Cfg.f_name = name) (Cfg.functions cfg)

let instrument ?use_dead_regs ?(func = "work") ?(points = `Blocks) () =
  let st, _ = build_symtab ~funcs:[ ("main", "main"); ("work", "work") ] mutatee in
  let cfg = Parser.parse st in
  let rw = Rewriter.create ?use_dead_regs st cfg in
  let c = Rewriter.allocate_var rw "c" 8 in
  let f = find_func cfg func in
  let pts =
    match points with
    | `Blocks -> Point.block_entries cfg f
    | `Entry -> Option.to_list (Point.func_entry cfg f)
  in
  List.iter (fun pt -> Rewriter.insert rw pt [ Snippet.incr c ]) pts;
  let img = Rewriter.rewrite rw in
  let m = Option.get (Rewriter.manifest rw) in
  (st, cfg, img, m)

let test_healthy_rewrite_proves () =
  let st, cfg, img, m = instrument () in
  let r = Check.check_manifest ~orig:st cfg ~manifest:m ~rewritten:img in
  checkb "instrumented at least two sites" true
    (List.length m.Manifest.m_entries >= 2);
  checki "every site proved"
    (List.length m.Manifest.m_entries)
    r.Check.r_ok;
  checki "no failures" 0 r.Check.r_failed;
  checki "no timeouts" 0 r.Check.r_unknown

let test_healthy_spill_rewrite_proves () =
  let st, cfg, img, m = instrument ~use_dead_regs:false () in
  let r = Check.check_manifest ~orig:st cfg ~manifest:m ~rewritten:img in
  checki "no failures under forced spilling" 0 r.Check.r_failed

let test_whole_program_rewrite_proves () =
  let st, cfg, img, m = instrument ~func:"main" () in
  let r = Check.check_manifest ~orig:st cfg ~manifest:m ~rewritten:img in
  checki "main instrumented: no failures" 0 r.Check.r_failed;
  checki "main instrumented: no timeouts" 0 r.Check.r_unknown

(* TraceAPI record snippets on matmul's multiply: ring-slot stores lie
   in the data area whatever widx holds, the cycle read and the flush
   ecall are declared, and the syscall frame is dead once popped. *)
let traced opts =
  let compiled = Minicc.Driver.compile (Minicc.Programs.matmul ~n:8 ~reps:1) in
  let b = Core.open_image compiled.Minicc.Driver.image in
  let m = Core.create_mutator b in
  let ring = Trace_api.Ring.create m.Core.rw ~capacity:1024 in
  ignore
    (Trace_api.Tracer.instrument m.Core.rw b.Core.cfg ~ring ~funcs:[ "multiply" ] opts);
  let rw = Core.rewrite m in
  let manifest = Option.get (Core.manifest m) in
  checki "structural verifier: no diagnostics" 0
    (List.length (Lint_api.Verifier.verify ~orig:b.Core.symtab b.Core.cfg ~manifest ~rewritten:rw));
  Check.check_manifest ~orig:b.Core.symtab b.Core.cfg ~manifest ~rewritten:rw

let test_bb_trace_proves () =
  let r = traced Trace_api.Tracer.coverage_only in
  checki "bb-trace sites" 10 (List.length r.Check.r_sites);
  checki "bb-trace sites proved" 10 r.Check.r_ok

let test_mem_trace_verdicts () =
  let r = traced Trace_api.Tracer.mem_only in
  checki "mem-trace sites" 10 (List.length r.Check.r_sites);
  checki "mem-trace: no failures" 0 r.Check.r_failed;
  List.iter
    (fun (s : Equiv.site) ->
      match s.Equiv.s_verdict with
      | Equiv.Unknown msg ->
          checkb ("inconclusive only on a budget: " ^ msg) true
            (String.length msg > 8 && String.sub msg 0 8 = "timeout:")
      | _ -> ())
    r.Check.r_sites;
  checki "mem-trace sites proved" 10 r.Check.r_ok

(* An undeclared cycle read is still an observation. *)
let test_undeclared_effect_fails () =
  let compiled = Minicc.Driver.compile (Minicc.Programs.matmul ~n:8 ~reps:1) in
  let b = Core.open_image compiled.Minicc.Driver.image in
  let m = Core.create_mutator b in
  let v = Core.create_counter m "stamp" in
  Core.insert m (Core.at_entry b "multiply") [ Snippet.Set (v, Snippet.Cycle) ];
  let rw = Core.rewrite m in
  let manifest = Option.get (Core.manifest m) in
  let strip (mf : Manifest.t) =
    {
      mf with
      Manifest.m_entries =
        List.map
          (fun (e : Manifest.entry) ->
            {
              e with
              Manifest.me_insertions =
                List.map
                  (fun i -> { i with Manifest.mi_effects = [] })
                  e.Manifest.me_insertions;
            })
          mf.Manifest.m_entries;
    }
  in
  let ok = Check.check_manifest ~orig:b.Core.symtab b.Core.cfg ~manifest ~rewritten:rw in
  checki "declared cycle read proves" 1 ok.Check.r_ok;
  let bad =
    Check.check_manifest ~orig:b.Core.symtab b.Core.cfg ~manifest:(strip manifest)
      ~rewritten:rw
  in
  checki "undeclared cycle read fails" 1 bad.Check.r_failed

(* --- seeded wrong-rewrite corpus ------------------------------------------ *)

(* The tier's reason to exist: each case passes the structural verifier
   (0 errors) yet must be disproved symbolically — and the healthy twin
   of the same rewrite must prove, so the disproof is the defect's. *)
let test_wrong_case (c : Wrongs.case) () =
  let structural =
    Lint_api.Verifier.verify ~orig:c.Wrongs.wc_symtab c.Wrongs.wc_cfg
      ~manifest:c.Wrongs.wc_manifest ~rewritten:c.Wrongs.wc_bad
  in
  checki
    (c.Wrongs.wc_name ^ ": invisible to the structural verifier")
    0
    (Lint_api.Diag.n_errors structural);
  let healthy =
    Check.check_manifest ~orig:c.Wrongs.wc_symtab c.Wrongs.wc_cfg
      ~manifest:c.Wrongs.wc_manifest ~rewritten:c.Wrongs.wc_healthy
  in
  checki (c.Wrongs.wc_name ^ ": healthy twin proves") 0
    (healthy.Check.r_failed + healthy.Check.r_unknown);
  let bad =
    Check.check_manifest ~orig:c.Wrongs.wc_symtab c.Wrongs.wc_cfg
      ~manifest:c.Wrongs.wc_manifest ~rewritten:c.Wrongs.wc_bad
  in
  checkb (c.Wrongs.wc_name ^ ": caught symbolically") true
    (bad.Check.r_failed > 0)

let wrongs_cases =
  List.map
    (fun (c : Wrongs.case) ->
      Alcotest.test_case c.Wrongs.wc_name `Quick (test_wrong_case c))
    (Wrongs.corpus ())

(* --- registration --------------------------------------------------------- *)

let () =
  Alcotest.run "verify"
    [
      ( "terms",
        [
          Alcotest.test_case "folding" `Quick test_term_fold;
          Alcotest.test_case "memory" `Quick test_term_memory;
          Alcotest.test_case "bounds" `Quick test_term_bounds;
        ] );
      ( "symexec",
        [
          Alcotest.test_case "straightline" `Quick test_symexec_straightline;
          Alcotest.test_case "branch-forks" `Quick test_symexec_branch_forks;
          Alcotest.test_case "store-load" `Quick test_symexec_store_load;
          Alcotest.test_case "frame-pop" `Quick test_symexec_frame_pop;
        ] );
      ( "equiv",
        [
          Alcotest.test_case "healthy-rewrite" `Quick test_healthy_rewrite_proves;
          Alcotest.test_case "healthy-spill" `Quick test_healthy_spill_rewrite_proves;
          Alcotest.test_case "healthy-main" `Quick test_whole_program_rewrite_proves;
          Alcotest.test_case "bb-trace" `Quick test_bb_trace_proves;
          Alcotest.test_case "mem-trace" `Quick test_mem_trace_verdicts;
          Alcotest.test_case "undeclared-effect" `Quick test_undeclared_effect_fails;
        ] );
      ("wrongs", wrongs_cases);
    ]
