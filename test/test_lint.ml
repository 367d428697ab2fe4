(* Lint tests: the binary linter's hazard rules on known-good and
   known-bad fixtures, and the patch verifier end to end — a clean
   rewrite must verify with zero errors, and each seeded defect class
   (mid-instruction springboard, clobbered live register, unbalanced
   trampoline stack, bad relocation, dangling jump-table entry) must be
   flagged by its rule. *)

open Riscv
open Parse_api
open Codegen_api
open Patch_api
open Lint_api

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let text_base = 0x10000L
let data_base = 0x20000L

let build_symtab ?(data = Bytes.empty) ?(funcs = []) items =
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
    @
    if Bytes.length data = 0 then []
    else
      [
        Elfkit.Types.section ".rodata" data ~s_addr:data_base
          ~s_flags:Elfkit.Types.shf_alloc ~s_addralign:8;
      ]
  in
  let img =
    Elfkit.Types.image ~entry:text_base ~symbols
      ~e_flags:Elfkit.Types.(ef_riscv_rvc lor ef_riscv_float_abi_double)
      sections
  in
  (Symtab.of_image img, r)

let find_func cfg name =
  List.find (fun f -> f.Cfg.f_name = name) (Cfg.functions cfg)

let has_rule ds rule = List.exists (fun d -> d.Diag.d_rule = rule) ds
let errors_of ds rule =
  List.filter (fun d -> d.Diag.d_rule = rule) (Diag.errors ds)

(* overwrite bytes in a (rewritten) image in place — symtab regions alias
   the section buffers, so this is how the tests seed defects *)
let poke img addr bytes =
  let st = Symtab.of_image img in
  match Symtab.region_at st addr with
  | Some r ->
      Bytes.blit bytes 0 r.Symtab.rg_data
        (Int64.to_int (Int64.sub addr r.Symtab.rg_addr))
        (Bytes.length bytes)
  | None -> Alcotest.failf "poke: no region at 0x%Lx" addr

(* --- linter fixtures ---------------------------------------------------- *)

(* the standard mutatee of test_patch: main loops 5 times over work *)
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

let parse_mutatee () =
  let st, r =
    build_symtab ~funcs:[ ("main", "main"); ("work", "work") ] mutatee
  in
  (st, Parser.parse st, r)

let test_lint_clean_mutatee () =
  let st, cfg, _ = parse_mutatee () in
  let ds = Linter.lint st cfg in
  checki "no errors on the standard mutatee" 0 (Diag.n_errors ds)

let test_lint_abi_clobber () =
  let open Asm in
  (* s2 written by a returning function that never saves it *)
  let st, _ =
    build_symtab ~funcs:[ ("main", "main") ]
      [
        Label "main";
        Insn (Build.addi (Reg.x 18) Reg.zero 5);
        Insn (Build.add Reg.a0 (Reg.x 18) (Reg.x 18));
        Insn Build.ret;
      ]
  in
  let ds = Linter.lint st (Parser.parse st) in
  checkb "abi-clobber reported" true (errors_of ds "abi-clobber" <> []);
  (* and saving it first silences the rule *)
  let st2, _ =
    build_symtab ~funcs:[ ("main", "main") ]
      [
        Label "main";
        Insn (Build.addi Reg.sp Reg.sp (-16));
        Insn (Build.sd (Reg.x 18) 8 Reg.sp);
        Insn (Build.addi (Reg.x 18) Reg.zero 5);
        Insn (Build.add Reg.a0 (Reg.x 18) (Reg.x 18));
        Insn (Build.ld (Reg.x 18) 8 Reg.sp);
        Insn (Build.addi Reg.sp Reg.sp 16);
        Insn Build.ret;
      ]
  in
  let ds2 = Linter.lint st2 (Parser.parse st2) in
  checkb "saved clobber accepted" false (has_rule ds2 "abi-clobber")

let test_lint_nonstandard_prologue () =
  let open Asm in
  (* a returning non-leaf that never saves ra: fast_walk cannot step it *)
  let st, _ =
    build_symtab
      ~funcs:[ ("main", "main"); ("leaf", "leaf") ]
      [
        Label "main";
        Call_l "leaf";
        Insn Build.ret;
        Label "leaf";
        Insn (Build.addi Reg.a0 Reg.a0 1);
        Insn Build.ret;
      ]
  in
  let ds = Linter.lint st (Parser.parse st) in
  checkb "nonstandard-prologue reported" true (has_rule ds "nonstandard-prologue")

let test_lint_unresolved_indirect () =
  let open Asm in
  (* jump target loaded from memory: the parser cannot resolve it *)
  let code =
    [
      Label "main";
      La (Reg.t0, "DATA");
      Insn (Build.ld Reg.t1 0 Reg.t0);
      Insn (Build.jr Reg.t1);
      Label "dest";
      Insn (Build.addi Reg.a7 Reg.zero 93);
      Insn Build.ecall;
    ]
  in
  let r0 = Asm.assemble ~base:text_base ~symbols:(function "DATA" -> Some data_base | _ -> None) code in
  let data = Bytes.create 8 in
  Bytes.set_int64_le data 0 (Asm.label_addr r0 "dest");
  let st, _ = build_symtab ~data ~funcs:[ ("main", "main") ] code in
  let ds = Linter.lint st (Parser.parse st) in
  checkb "unresolved-indirect warned" true (has_rule ds "unresolved-indirect");
  checkb "it is a warning, not an error" true
    (errors_of ds "unresolved-indirect" = [])

(* --- the verifier on a clean rewrite ------------------------------------- *)

let instrument_work () =
  let st, cfg, _ = parse_mutatee () in
  let rw = Rewriter.create st cfg in
  let c = Rewriter.allocate_var rw "c" 8 in
  let work = find_func cfg "work" in
  List.iter
    (fun pt -> Rewriter.insert rw pt [ Snippet.incr c ])
    (Point.block_entries cfg work);
  let img = Rewriter.rewrite rw in
  let m = Option.get (Rewriter.manifest rw) in
  (st, cfg, img, m, work)

let work_entry_entry cfg m (work : Cfg.func) =
  match Manifest.entry_for (Manifest.index m) work.Cfg.f_entry with
  | Some e -> e
  | None -> Alcotest.fail "no manifest entry for work's entry block"
  [@@warning "-27"]

let test_verify_clean () =
  let st, cfg, img, m, _ = instrument_work () in
  let ds = Verifier.verify ~orig:st cfg ~manifest:m ~rewritten:img in
  checki "clean rewrite verifies" 0 (Diag.n_errors ds)

(* --- seeded defect classes ----------------------------------------------- *)

(* 1. springboard re-pointed mid-instruction into the trampoline *)
let test_seed_mid_insn_springboard () =
  let st, cfg, img, m, work = instrument_work () in
  let e = work_entry_entry cfg m work in
  let off =
    Int64.to_int (Int64.sub (Int64.add e.Manifest.me_tramp 2L) e.Manifest.me_block)
  in
  poke img e.Manifest.me_block (Encode.encode (Build.jal Reg.zero off));
  let ds = Verifier.verify ~orig:st cfg ~manifest:m ~rewritten:img in
  checkb "springboard-target error" true (errors_of ds "springboard-target" <> [])

(* 2. manifest claims the snippet clobbered a register that is live *)
let test_seed_clobbered_live_reg () =
  let st, cfg, img, m, work = instrument_work () in
  let entry = work.Cfg.f_entry in
  let m' =
    {
      m with
      Manifest.m_entries =
        List.map
          (fun (e : Manifest.entry) ->
            if Int64.equal e.Manifest.me_block entry then
              {
                e with
                Manifest.me_insertions =
                  List.map
                    (fun i -> { i with Manifest.mi_clobbers = [ Reg.a0 ] })
                    e.Manifest.me_insertions;
              }
            else e)
          m.Manifest.m_entries;
    }
  in
  let ds = Verifier.verify ~orig:st cfg ~manifest:m' ~rewritten:img in
  (* a0 is work's argument, read by its first instruction *)
  checkb "clobber-live error" true (errors_of ds "clobber-live" <> [])

(* 3. a trampoline instruction replaced with unbalanced stack motion *)
let test_seed_stack_imbalance () =
  let st, cfg, img, m, work = instrument_work () in
  let e = work_entry_entry cfg m work in
  poke img e.Manifest.me_tramp
    (Encode.encode (Build.addi Reg.sp Reg.sp (-16)));
  let ds = Verifier.verify ~orig:st cfg ~manifest:m ~rewritten:img in
  checkb "stack-imbalance error" true (errors_of ds "stack-imbalance" <> [])

(* 4. relocated code writes a register nothing declared (s3) *)
let test_seed_bad_relocation () =
  let st, cfg, img, m, work = instrument_work () in
  let e = work_entry_entry cfg m work in
  poke img e.Manifest.me_tramp
    (Encode.encode (Build.addi (Reg.x 19) Reg.zero 1));
  let ds = Verifier.verify ~orig:st cfg ~manifest:m ~rewritten:img in
  checkb "bad-relocation error" true (errors_of ds "bad-relocation" <> [])

(* 5. an absolute jump-table slot corrupted to a mid-instruction address *)
let switch_code =
  let open Asm in
  [
    Label "main";
    Insn (Build.addi Reg.t0 Reg.zero 4);
    Br (Op.BGEU, Reg.a0, Reg.t0, "default");
    La (Reg.t1, "DATA");
    Insn (Build.slli Reg.t2 Reg.a0 3);
    Insn (Build.add Reg.t1 Reg.t1 Reg.t2);
    Insn (Build.ld Reg.t3 0 Reg.t1);
    Insn (Build.jr Reg.t3);
    Label "case0";
    Insn (Build.addi Reg.a1 Reg.zero 10);
    J "end";
    Label "case1";
    Insn (Build.addi Reg.a1 Reg.zero 11);
    J "end";
    Label "case2";
    Insn (Build.addi Reg.a1 Reg.zero 12);
    J "end";
    Label "case3";
    Insn (Build.addi Reg.a1 Reg.zero 13);
    J "end";
    Label "default";
    Insn (Build.addi Reg.a1 Reg.zero 99);
    Label "end";
    Insn Build.ret;
  ]

let instrument_switch () =
  let r0 =
    Asm.assemble ~base:text_base
      ~symbols:(function "DATA" -> Some data_base | _ -> None)
      switch_code
  in
  let table = Bytes.create 32 in
  List.iteri
    (fun k c -> Bytes.set_int64_le table (k * 8) (Asm.label_addr r0 c))
    [ "case0"; "case1"; "case2"; "case3" ];
  let st, _ = build_symtab ~data:table ~funcs:[ ("main", "main") ] switch_code in
  let cfg = Parser.parse st in
  let rw = Rewriter.create st cfg in
  let c = Rewriter.allocate_var rw "c" 8 in
  let main = find_func cfg "main" in
  Rewriter.insert rw (Option.get (Point.func_entry cfg main)) [ Snippet.incr c ];
  let img = Rewriter.rewrite rw in
  let m = Option.get (Rewriter.manifest rw) in
  (st, cfg, img, m, r0)

let test_jt_stats () =
  let _, cfg, _, _, _ = instrument_switch () in
  let main = find_func cfg "main" in
  let s = Cfg.jt_stats cfg main in
  checki "one dispatch site" 1 s.Cfg.jts_sites;
  checki "resolved" 1 s.Cfg.jts_resolved;
  checki "none unresolved" 0 s.Cfg.jts_unresolved;
  checki "none clamped" 0 s.Cfg.jts_clamped

let test_verify_jump_table_clean () =
  let st, cfg, img, m, _ = instrument_switch () in
  let ds = Verifier.verify ~orig:st cfg ~manifest:m ~rewritten:img in
  checki "intact table verifies" 0 (Diag.n_errors ds)

let test_seed_dangling_jump_table () =
  let st, cfg, img, m, r0 = instrument_switch () in
  (* slot 0 now points two bytes into case1: not an instruction boundary *)
  let bad = Bytes.create 8 in
  Bytes.set_int64_le bad 0 (Int64.add (Asm.label_addr r0 "case1") 2L);
  poke img data_base bad;
  let ds = Verifier.verify ~orig:st cfg ~manifest:m ~rewritten:img in
  checkb "dangling-jump-table error" true
    (errors_of ds "dangling-jump-table" <> [])

(* --- the Rewriter verify hook -------------------------------------------- *)

let test_hook_clean_rewrite_passes () =
  let st, cfg, _ = parse_mutatee () in
  let rw = Rewriter.create st cfg in
  let c = Rewriter.allocate_var rw "c" 8 in
  let work = find_func cfg "work" in
  Rewriter.insert rw (Option.get (Point.func_entry cfg work)) [ Snippet.incr c ];
  Verifier.install ();
  let ok = match Rewriter.rewrite rw with _ -> true
    | exception Verifier.Verify_failed _ -> false
  in
  Verifier.uninstall ();
  checkb "hooked rewrite verifies" true ok

(* --- manifest lookups against linear-scan oracles ------------------------ *)

(* the definitions the index replaced: one scan of every entry per query *)
let oracle_span_end (m : Manifest.t) (e : Manifest.entry) =
  List.fold_left
    (fun acc (e' : Manifest.entry) ->
      let t = e'.Manifest.me_tramp in
      if Int64.compare t e.Manifest.me_tramp > 0 && Int64.compare t acc < 0
      then t
      else acc)
    (Int64.add m.Manifest.m_tramp_base (Int64.of_int m.Manifest.m_tramp_size))
    m.Manifest.m_entries

let oracle_entry_for (m : Manifest.t) a =
  List.find_opt (fun (e : Manifest.entry) -> Int64.equal e.Manifest.me_block a)
    m.Manifest.m_entries

let oracle_entry_inside (m : Manifest.t) a =
  List.find_opt
    (fun (e : Manifest.entry) ->
      Int64.compare a e.Manifest.me_block > 0
      && Int64.compare a e.Manifest.me_block_end < 0)
    m.Manifest.m_entries

let check_against_oracles (m : Manifest.t) =
  let ix = Manifest.index m in
  let same_entry what a got want =
    checkb (Printf.sprintf "%s 0x%Lx" what a) true (got = want)
  in
  List.iter
    (fun (e : Manifest.entry) ->
      Alcotest.(check int64)
        (Printf.sprintf "span end of 0x%Lx" e.Manifest.me_block)
        (oracle_span_end m e) (Manifest.span_end ix e);
      List.iter
        (fun a ->
          same_entry "entry_for" a (Manifest.entry_for ix a) (oracle_entry_for m a);
          same_entry "entry_inside" a (Manifest.entry_inside ix a)
            (oracle_entry_inside m a))
        [
          Int64.sub e.Manifest.me_block 2L;
          e.Manifest.me_block;
          Int64.add e.Manifest.me_block 2L;
          Int64.sub e.Manifest.me_block_end 2L;
          e.Manifest.me_block_end;
        ])
    m.Manifest.m_entries

(* a hand-written manifest from (block, block_end, tramp) triples *)
let manifest_json ~tramp_size entries =
  Printf.sprintf
    {|{"tramp_base":4096,"tramp_size":%d,"data_base":65536,"data_size":8,"traps":[],"entries":[%s]}|}
    tramp_size
    (String.concat ","
       (List.map
          (fun (block, block_end, tramp) ->
            Printf.sprintf
              {|{"block":%d,"block_end":%d,"func":%d,"tramp":%d,"strategy":"jal","sb_len":4,"sb_scratch":null,"insertions":[]}|}
              block block_end block tramp)
          entries))

let test_span_single_entry () =
  let m = Manifest.of_string (manifest_json ~tramp_size:64 [ (256, 272, 4096) ]) in
  let ix = Manifest.index m in
  let e = List.hd m.Manifest.m_entries in
  Alcotest.(check int64) "span runs to the region end" 4160L (Manifest.span_end ix e);
  checkb "entry_for its block" true (Manifest.entry_for ix 256L = Some e);
  checkb "inside its block" true (Manifest.entry_inside ix 258L = Some e);
  checkb "its start is not inside" true (Manifest.entry_inside ix 256L = None);
  checkb "its end is not inside" true (Manifest.entry_inside ix 272L = None);
  check_against_oracles m

let test_span_out_of_order () =
  (* block order 0x100, 0x200, 0x300; trampoline order 0x300, 0x100, 0x200 *)
  let m =
    Manifest.of_string
      (manifest_json ~tramp_size:0x90
         [ (0x100, 0x110, 0x1040); (0x200, 0x208, 0x1060); (0x300, 0x30c, 0x1000) ])
  in
  let ix = Manifest.index m in
  let ends = List.map (Manifest.span_end ix) m.Manifest.m_entries in
  Alcotest.(check (list int64)) "spans follow trampoline order"
    [ 0x1060L; 0x1090L; 0x1040L ] ends;
  check_against_oracles m

let test_span_last_entry () =
  let m =
    Manifest.of_string
      (manifest_json ~tramp_size:0x30
         [ (0x100, 0x110, 0x1000); (0x200, 0x208, 0x1010); (0x300, 0x30c, 0x1020) ])
  in
  let last = List.nth m.Manifest.m_entries 2 in
  Alcotest.(check int64) "last span ends at tramp_base + tramp_size"
    (Int64.add m.Manifest.m_tramp_base (Int64.of_int m.Manifest.m_tramp_size))
    (Manifest.span_end (Manifest.index m) last);
  (* a shrunk region caps every span past its end *)
  check_against_oracles { m with Manifest.m_tramp_size = 0x14 }

(* every block of every function of [image] gets a counter *)
let every_block_rewriter image =
  let st = Symtab.of_image image in
  let cfg = Parser.parse st in
  let rw = Rewriter.create st cfg in
  let c = Rewriter.allocate_var rw "c" 8 in
  List.iter
    (fun f ->
      List.iter
        (fun pt -> Rewriter.insert rw pt [ Snippet.incr c ])
        (Point.block_entries cfg f))
    (Cfg.functions cfg);
  (st, cfg, rw)

let test_span_builtins () =
  List.iter
    (fun src ->
      let img = (Minicc.Driver.compile src).Minicc.Driver.image in
      let _, _, rw = every_block_rewriter img in
      ignore (Rewriter.rewrite rw);
      check_against_oracles (Option.get (Rewriter.manifest rw)))
    Minicc.Programs.
      [ fib; calls; switch_demo; mixed; matmul ~n:8 ~reps:1 ]

(* --- scaling: rewrite and verify cost per point must not grow ---------- *)

(* [n] functions alternating a loop and an eight-way switch (a jump
   table), reached from main through drivers of 16 calls each so no
   function grows with [n] *)
let scaling_source n =
  let b = Buffer.create (n * 256) in
  for k = 0 to n - 1 do
    if k mod 2 = 0 then
      Printf.bprintf b
        {|
int f%d(int x) {
  int i;
  int s;
  s = x;
  for (i = 0; i < %d; i = i + 1) {
    if ((s & 3) == 1) {
      s = s + i;
    } else {
      s = s - %d;
    }
  }
  return s;
}
|}
        k (3 + (k mod 5)) (1 + (k mod 7))
    else begin
      Printf.bprintf b "\nint f%d(int x) {\n  switch (x & 7) {\n" k;
      for c = 0 to 7 do
        Printf.bprintf b "    case %d: return x * %d + %d;\n" c (c + 2) k
      done;
      Printf.bprintf b "    default: return %d;\n  }\n}\n" k
    end
  done;
  let drivers = (n + 15) / 16 in
  for d = 0 to drivers - 1 do
    Printf.bprintf b "\nint d%d(int x) {\n  int acc;\n  acc = x;\n" d;
    for k = d * 16 to min n ((d + 1) * 16) - 1 do
      Printf.bprintf b "  acc = acc + f%d(%d);\n" k k
    done;
    Buffer.add_string b "  return acc;\n}\n"
  done;
  Buffer.add_string b "\nint main() {\n  int acc;\n  acc = 0;\n";
  for d = 0 to drivers - 1 do
    Printf.bprintf b "  acc = d%d(acc & 65535);\n" d
  done;
  Buffer.add_string b "  return acc & 255;\n}\n";
  Buffer.contents b

let scaling_n = 100

let scaling_rewriter n =
  every_block_rewriter
    (Minicc.Driver.compile (scaling_source n)).Minicc.Driver.image

(* words the calling domain allocates in the minor heap per point of one
   rewrite: deterministic, so a plain bound *)
let test_rewrite_alloc_scaling () =
  let words_per_point n =
    let _, _, rw = scaling_rewriter n in
    let w0 = Gc.minor_words () in
    ignore (Rewriter.rewrite rw);
    (Gc.minor_words () -. w0) /. float (Rewriter.stats rw).Rewriter.n_points
  in
  let small = words_per_point scaling_n in
  let large = words_per_point (2 * scaling_n) in
  if large > 1.3 *. small then
    Alcotest.failf
      "rewrite allocates %.0f words/point at %d functions, %.0f at %d (> 1.3x)"
      large (2 * scaling_n) small scaling_n

(* wall-clock time per point of Verifier.verify: median of 5 interleaved
   trials at n and 2n.  Linear cost keeps the ratio near 1; cost
   quadratic in the points tends to 2 per point (4 in total), so the bar
   sits between the two. *)
let test_verify_time_scaling () =
  let session n =
    let st, cfg, rw = scaling_rewriter n in
    let img = Rewriter.rewrite rw in
    let m = Option.get (Rewriter.manifest rw) in
    (st, cfg, m, img)
  in
  let per_point (st, cfg, m, img) =
    let t0 = Unix.gettimeofday () in
    let ds = Verifier.verify ~orig:st cfg ~manifest:m ~rewritten:img in
    let dt = Unix.gettimeofday () -. t0 in
    checki "scaling corpus verifies" 0 (Diag.n_errors ds);
    dt /. float (List.length m.Manifest.m_entries)
  in
  let small = session scaling_n and large = session (2 * scaling_n) in
  let trials = List.init 5 (fun _ -> (per_point small, per_point large)) in
  let median l = List.nth (List.sort compare l) 2 in
  let s = median (List.map fst trials) and l = median (List.map snd trials) in
  if l > 1.5 *. s then
    Alcotest.failf
      "verify takes %.1f us/point at %d functions, %.1f at %d (> 1.5x)"
      (l *. 1e6) (2 * scaling_n) (s *. 1e6) scaling_n

let () =
  Alcotest.run "lint"
    [
      ( "linter",
        [
          Alcotest.test_case "clean mutatee" `Quick test_lint_clean_mutatee;
          Alcotest.test_case "abi clobber" `Quick test_lint_abi_clobber;
          Alcotest.test_case "nonstandard prologue" `Quick
            test_lint_nonstandard_prologue;
          Alcotest.test_case "unresolved indirect" `Quick
            test_lint_unresolved_indirect;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "clean rewrite" `Quick test_verify_clean;
          Alcotest.test_case "jump-table clean" `Quick
            test_verify_jump_table_clean;
          Alcotest.test_case "jt stats" `Quick test_jt_stats;
          Alcotest.test_case "rewrite hook" `Quick test_hook_clean_rewrite_passes;
        ] );
      ( "seeded-defects",
        [
          Alcotest.test_case "mid-instruction springboard" `Quick
            test_seed_mid_insn_springboard;
          Alcotest.test_case "clobbered live register" `Quick
            test_seed_clobbered_live_reg;
          Alcotest.test_case "unbalanced trampoline stack" `Quick
            test_seed_stack_imbalance;
          Alcotest.test_case "bad relocation" `Quick test_seed_bad_relocation;
          Alcotest.test_case "dangling jump-table entry" `Quick
            test_seed_dangling_jump_table;
        ] );
      ( "manifest-index",
        [
          Alcotest.test_case "single entry" `Quick test_span_single_entry;
          Alcotest.test_case "last entry" `Quick test_span_last_entry;
          Alcotest.test_case "out of trampoline order" `Quick
            test_span_out_of_order;
          Alcotest.test_case "builtin manifests" `Quick test_span_builtins;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "rewrite allocation per point" `Quick
            test_rewrite_alloc_scaling;
          Alcotest.test_case "verify time per point" `Quick
            test_verify_time_scaling;
        ] );
    ]
