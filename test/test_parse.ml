(* ParseAPI tests: traversal parsing, the §3.2.3 jal/jalr classification
   decision procedure, auipc+jalr fusion, jump tables, block splitting,
   loop detection, gap parsing, and CFG invariants. *)

open Riscv
open Parse_api

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let text_base = 0x10000L
let data_base = 0x20000L

(* Build a symtab from asm items, optional data, and function symbols
   (name -> label). *)
let build_symtab ?(data = Bytes.empty) ?(funcs = []) ?entry_label items =
  let symbols_fn = function
    | "DATA" -> Some data_base
    | _ -> None
  in
  let r = Asm.assemble ~base:text_base ~symbols:symbols_fn items in
  let entry =
    match entry_label with
    | Some l -> Asm.label_addr r l
    | None -> text_base
  in
  let sections =
    [
      Elfkit.Types.section ".text" r.Asm.code ~s_addr:text_base
        ~s_flags:Elfkit.Types.(shf_alloc lor shf_execinstr) ~s_addralign:4;
    ]
    @
    if Bytes.length data = 0 then []
    else
      [
        Elfkit.Types.section ".rodata" data ~s_addr:data_base
          ~s_flags:Elfkit.Types.shf_alloc ~s_addralign:8;
      ]
  in
  let symbols =
    List.map
      (fun (name, label) ->
        Elfkit.Types.symbol name (Asm.label_addr r label) ~sym_section:".text")
      funcs
  in
  (Symtab.of_image (Elfkit.Types.image ~entry ~symbols sections), r)

let edges_of_kind (b : Cfg.block) k =
  List.filter (fun e -> e.Cfg.ek = k) b.Cfg.b_out

let find_func cfg name =
  match
    List.find_opt (fun f -> f.Cfg.f_name = name) (Cfg.functions cfg)
  with
  | Some f -> f
  | None -> Alcotest.failf "function %s not found" name

(* --- basic shapes --------------------------------------------------------- *)

let test_straight_line () =
  let open Asm in
  let st, _ =
    build_symtab
      ~funcs:[ ("main", "main") ]
      [
        Label "main";
        Insn (Build.addi Reg.a0 Reg.zero 1);
        Insn (Build.addi Reg.a0 Reg.a0 2);
        Insn Build.ret;
      ]
  in
  let cfg = Parser.parse st in
  let f = find_func cfg "main" in
  checki "one block" 1 (Cfg.I64Set.cardinal f.Cfg.f_blocks);
  checkb "returns" true f.Cfg.f_returns;
  let b = Option.get (Cfg.block_at cfg f.Cfg.f_entry) in
  checki "three instructions" 3 (List.length b.Cfg.b_insns);
  checki "one return edge" 1 (List.length (edges_of_kind b Cfg.E_return))

let test_diamond () =
  let open Asm in
  (* if/else: 4 blocks (entry, then, else, join) *)
  let st, _ =
    build_symtab
      ~funcs:[ ("main", "main") ]
      [
        Label "main";
        Br (Op.BEQ, Reg.a0, Reg.zero, "else_");
        Insn (Build.addi Reg.a1 Reg.zero 1);
        J "join";
        Label "else_";
        Insn (Build.addi Reg.a1 Reg.zero 2);
        Label "join";
        Insn Build.ret;
      ]
  in
  let cfg = Parser.parse st in
  let f = find_func cfg "main" in
  checki "four blocks" 4 (Cfg.I64Set.cardinal f.Cfg.f_blocks);
  let entry = Option.get (Cfg.block_at cfg f.Cfg.f_entry) in
  checki "taken edge" 1 (List.length (edges_of_kind entry Cfg.E_taken));
  checki "not-taken edge" 1 (List.length (edges_of_kind entry Cfg.E_not_taken))

let test_call_discovery () =
  let open Asm in
  (* main calls helper (no symbol for helper: discovered via call) *)
  let st, _ =
    build_symtab
      ~funcs:[ ("main", "main") ]
      [
        Label "main";
        Call_l "helper";
        Insn Build.ret;
        Label "helper";
        Insn (Build.addi Reg.a0 Reg.a0 1);
        Insn Build.ret;
      ]
  in
  let cfg = Parser.parse st in
  let f = find_func cfg "main" in
  let entry = Option.get (Cfg.block_at cfg f.Cfg.f_entry) in
  checki "call edge" 1 (List.length (edges_of_kind entry Cfg.E_call));
  checki "call-ft edge" 1 (List.length (edges_of_kind entry Cfg.E_call_ft));
  (* helper must have been discovered as a function *)
  checki "two functions" 2 (List.length (Cfg.functions cfg));
  checkb "callee recorded" true (Cfg.I64Set.cardinal f.Cfg.f_callees = 1)

let test_tail_call () =
  let open Asm in
  let st, _ =
    build_symtab
      ~funcs:[ ("main", "main"); ("target", "target") ]
      [
        Label "main";
        Insn (Build.addi Reg.a0 Reg.zero 5);
        J "target" (* jal x0 to another function: tail call *);
        Label "target";
        Insn Build.ret;
      ]
  in
  let cfg = Parser.parse st in
  let f = find_func cfg "main" in
  let entry = Option.get (Cfg.block_at cfg f.Cfg.f_entry) in
  checki "tail-call edge" 1 (List.length (edges_of_kind entry Cfg.E_tail_call));
  checki "no jump edge" 0 (List.length (edges_of_kind entry Cfg.E_jump))

let test_auipc_jalr_fusion () =
  let open Asm in
  (* an auipc+jalr pair calling a function 0x100000 bytes away; ParseAPI
     must resolve the pair to a direct call (paper §3.2.3's example) *)
  let far_base = 0x200000L in
  let off = Int64.sub far_base text_base in
  let hi, lo = Asm.pcrel_hi_lo off in
  let items =
    [
      Label "main";
      Insn (Build.auipc Reg.t1 hi);
      Insn (Build.jalr Reg.ra Reg.t1 lo);
      Insn Build.ret;
    ]
  in
  let r = Asm.assemble ~base:text_base items in
  let far_code =
    Asm.assemble ~base:far_base [ Label "far"; Insn Build.ret ]
  in
  let st =
    Symtab.of_image
      (Elfkit.Types.image
         ~entry:text_base
         ~symbols:[ Elfkit.Types.symbol "main" text_base ~sym_section:".text" ]
         [
           Elfkit.Types.section ".text" r.Asm.code ~s_addr:text_base
             ~s_flags:Elfkit.Types.(shf_alloc lor shf_execinstr);
           Elfkit.Types.section ".text.far" far_code.Asm.code ~s_addr:far_base
             ~s_flags:Elfkit.Types.(shf_alloc lor shf_execinstr);
         ])
  in
  let cfg = Parser.parse st in
  let f = find_func cfg "main" in
  let entry = Option.get (Cfg.block_at cfg f.Cfg.f_entry) in
  match edges_of_kind entry Cfg.E_call with
  | [ e ] ->
      checkb "resolved to far target" true (e.Cfg.e_dst = Cfg.T_addr far_base);
      checkb "far function discovered" true
        (Cfg.func_at cfg far_base <> None)
  | es -> Alcotest.failf "expected 1 resolved call edge, got %d" (List.length es)

let test_return_via_ra () =
  let open Asm in
  let st, _ =
    build_symtab ~funcs:[ ("main", "main") ]
      [ Label "main"; Insn Build.ret ]
  in
  let cfg = Parser.parse st in
  let f = find_func cfg "main" in
  checkb "returns" true f.Cfg.f_returns

let test_loop_detection () =
  let open Asm in
  let st, _ =
    build_symtab
      ~funcs:[ ("main", "main") ]
      [
        Label "main";
        Insn (Build.addi Reg.t0 Reg.zero 10);
        Label "loop";
        Insn (Build.addi Reg.t0 Reg.t0 (-1));
        Br (Op.BNE, Reg.t0, Reg.zero, "loop");
        Insn Build.ret;
      ]
  in
  let cfg = Parser.parse st in
  let f = find_func cfg "main" in
  let loops = Loops.loops_of_function cfg f in
  checki "one loop" 1 (List.length loops);
  let l = List.hd loops in
  checki "single-block body" 1 (Cfg.I64Set.cardinal l.Loops.l_blocks);
  checki "one back edge" 1 (List.length l.Loops.l_back_edges)

let test_nested_loops () =
  let open Asm in
  let st, _ =
    build_symtab
      ~funcs:[ ("main", "main") ]
      [
        Label "main";
        Insn (Build.addi Reg.t0 Reg.zero 0);
        Label "outer";
        Insn (Build.addi Reg.t1 Reg.zero 0);
        Label "inner";
        Insn (Build.addi Reg.t1 Reg.t1 1);
        Insn (Build.slti Reg.t2 Reg.t1 8);
        Br (Op.BNE, Reg.t2, Reg.zero, "inner");
        Insn (Build.addi Reg.t0 Reg.t0 1);
        Insn (Build.slti Reg.t2 Reg.t0 8);
        Br (Op.BNE, Reg.t2, Reg.zero, "outer");
        Insn Build.ret;
      ]
  in
  let cfg = Parser.parse st in
  let f = find_func cfg "main" in
  let loops = Loops.loops_of_function cfg f in
  checki "two loops" 2 (List.length loops);
  let depths = List.map (Loops.loop_nest_depth loops) loops in
  checkb "nesting depths 1 and 2" true
    (List.sort compare depths = [ 1; 2 ])

let test_block_splitting () =
  let open Asm in
  (* a backward branch into the middle of the entry block forces a split *)
  let st, _ =
    build_symtab
      ~funcs:[ ("main", "main") ]
      [
        Label "main";
        Insn (Build.addi Reg.t0 Reg.zero 1);
        Label "mid";
        Insn (Build.addi Reg.t0 Reg.t0 1);
        Insn (Build.slti Reg.t1 Reg.t0 5);
        Br (Op.BNE, Reg.t1, Reg.zero, "mid");
        Insn Build.ret;
      ]
  in
  let cfg = Parser.parse st in
  let f = find_func cfg "main" in
  (* blocks: [main..mid), [mid..branch-end), [ret] *)
  checki "three blocks after split" 3 (Cfg.I64Set.cardinal f.Cfg.f_blocks);
  let b0 = Option.get (Cfg.block_at cfg f.Cfg.f_entry) in
  checki "head block has 1 insn" 1 (List.length b0.Cfg.b_insns);
  checki "fallthrough out" 1 (List.length (edges_of_kind b0 Cfg.E_fallthrough))

let test_jump_table () =
  let open Asm in
  (* switch dispatch: 4 cases, absolute 8-byte table in .rodata *)
  let code =
    [
      Label "main";
      (* bound check: a0 < 4 *)
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
  in
  (* two-phase: assemble to learn case addresses, then build the table *)
  let r0 =
    Asm.assemble ~base:text_base
      ~symbols:(function "DATA" -> Some data_base | _ -> None)
      code
  in
  let table = Bytes.create 32 in
  List.iteri
    (fun k c -> Bytes.set_int64_le table (k * 8) (Asm.label_addr r0 c))
    [ "case0"; "case1"; "case2"; "case3" ];
  let st, _ = build_symtab ~data:table ~funcs:[ ("main", "main") ] code in
  let cfg = Parser.parse st in
  let f = find_func cfg "main" in
  (* find the dispatch block: it ends with the jalr *)
  let dispatch =
    List.find
      (fun b -> edges_of_kind b Cfg.E_jump_table <> [])
      (Cfg.blocks_of cfg f)
  in
  let targets =
    edges_of_kind dispatch Cfg.E_jump_table
    |> List.filter_map (fun e ->
           match e.Cfg.e_dst with Cfg.T_addr a -> Some a | _ -> None)
    |> List.sort Int64.compare
  in
  let expected =
    List.map (Asm.label_addr r0) [ "case0"; "case1"; "case2"; "case3" ]
    |> List.sort Int64.compare
  in
  Alcotest.(check (list int64)) "table targets" expected targets;
  (* all case blocks must be in the function *)
  List.iter
    (fun a -> checkb "case block parsed" true (Cfg.block_at cfg a <> None))
    expected

let test_unresolved_indirect () =
  let open Asm in
  (* jr through a register loaded from memory: unresolvable *)
  let data = Bytes.make 8 '\x00' in
  let st, _ =
    build_symtab ~data ~funcs:[ ("main", "main") ]
      [
        Label "main";
        La (Reg.t0, "DATA");
        Insn (Build.ld Reg.t1 0 Reg.t0);
        Insn (Build.jr Reg.t1);
      ]
  in
  let cfg = Parser.parse st in
  let f = find_func cfg "main" in
  let b = Option.get (Cfg.block_at cfg f.Cfg.f_entry) in
  match edges_of_kind b Cfg.E_indirect with
  | [ e ] -> checkb "unknown target" true (e.Cfg.e_dst = Cfg.T_unknown)
  | es -> Alcotest.failf "expected unresolved edge, got %d" (List.length es)

let test_gap_parsing () =
  let open Asm in
  (* dead function only reachable via gap scan: has a prologue, no symbol,
     never called *)
  let st, r =
    build_symtab
      ~funcs:[ ("main", "main") ]
      [
        Label "main";
        Insn Build.ret;
        Align 8;
        Label "dead";
        Insn (Build.addi Reg.sp Reg.sp (-16));
        Insn (Build.sd Reg.ra 8 Reg.sp);
        Insn (Build.ld Reg.ra 8 Reg.sp);
        Insn (Build.addi Reg.sp Reg.sp 16);
        Insn Build.ret;
      ]
  in
  let dead_addr = Asm.label_addr r "dead" in
  let cfg = Parser.parse ~gap_parsing:true st in
  (match Cfg.func_at cfg dead_addr with
  | Some f -> checkb "marked as gap function" true f.Cfg.f_from_gap
  | None -> Alcotest.fail "gap function not discovered");
  (* and without gap parsing it must NOT be found *)
  let cfg2 = Parser.parse ~gap_parsing:false st in
  checkb "hidden without gap parsing" true (Cfg.func_at cfg2 dead_addr = None)


let test_constprop_refinement () =
  let open Asm in
  (* the jalr target register is materialized in an *earlier* block, so
     the block-local slice fails; the flow-sensitive constant propagation
     refinement must resolve it to a tail call (paper: "advanced dataflow
     analysis techniques") *)
  let st, r =
    build_symtab
      ~funcs:[ ("main", "main"); ("helper", "helper") ]
      [
        Label "main";
        La (Reg.t0, "helper");
        Br (Op.BEQ, Reg.a0, Reg.zero, "skip");
        Insn Build.nop;
        Label "skip";
        Insn (Build.jr Reg.t0);
        Label "helper";
        Insn Build.ret;
      ]
  in
  let cfg = Parser.parse st in
  let f = find_func cfg "main" in
  let skip_block = Option.get (Cfg.block_at cfg (Asm.label_addr r "skip")) in
  (match edges_of_kind skip_block Cfg.E_tail_call with
  | [ e ] ->
      checkb "resolved to helper" true
        (e.Cfg.e_dst = Cfg.T_addr (Asm.label_addr r "helper"))
  | es ->
      Alcotest.failf "expected refined tail call, got %d (all: %s)"
        (List.length es)
        (String.concat ", "
           (List.map
              (fun e -> Format.asprintf "%a" Cfg.pp_edge e)
              skip_block.Cfg.b_out)));
  checkb "helper recorded as callee" true
    (Cfg.I64Set.mem (Asm.label_addr r "helper") f.Cfg.f_callees)

let test_constprop_join_conflict () =
  let open Asm in
  (* two predecessors put *different* constants in t0: the join is Top and
     the jalr must stay unresolved *)
  let st, r =
    build_symtab
      ~funcs:[ ("main", "main"); ("h1", "h1"); ("h2", "h2") ]
      [
        Label "main";
        Br (Op.BEQ, Reg.a0, Reg.zero, "other");
        La (Reg.t0, "h1");
        J "go";
        Label "other";
        La (Reg.t0, "h2");
        Label "go";
        Insn (Build.jr Reg.t0);
        Label "h1";
        Insn Build.ret;
        Label "h2";
        Insn Build.ret;
      ]
  in
  let cfg = Parser.parse st in
  let go_block = Option.get (Cfg.block_at cfg (Asm.label_addr r "go")) in
  match go_block.Cfg.b_out with
  | [ { Cfg.ek = Cfg.E_indirect; e_dst = Cfg.T_unknown; _ } ] -> ()
  | es ->
      Alcotest.failf "expected unresolved, got %s"
        (String.concat ", "
           (List.map (fun e -> Format.asprintf "%a" Cfg.pp_edge e) es))

(* --- CFG invariants -------------------------------------------------------- *)

let invariant_program =
  let open Asm in
  [
    Label "main";
    Insn (Build.addi Reg.t0 Reg.zero 3);
    Label "loop";
    Call_l "work";
    Insn (Build.addi Reg.t0 Reg.t0 (-1));
    Br (Op.BNE, Reg.t0, Reg.zero, "loop");
    Br (Op.BEQ, Reg.a0, Reg.zero, "out");
    Insn (Build.addi Reg.a0 Reg.zero 0);
    Label "out";
    Insn Build.ret;
    Label "work";
    Br (Op.BLT, Reg.a0, Reg.t1, "w1");
    Insn (Build.addi Reg.a0 Reg.a0 1);
    Label "w1";
    Insn Build.ret;
  ]

let test_invariants () =
  let st, _ =
    build_symtab ~funcs:[ ("main", "main"); ("work", "work") ]
      invariant_program
  in
  let cfg = Parser.parse st in
  (* 1. blocks are disjoint (the builders' Interval_map.add raises on
        overlap, so successful parsing already guarantees it; assert the
        frozen array and the table agree) *)
  checki "frozen array and table agree"
    (Array.length cfg.Cfg.blocks_sorted)
    (Hashtbl.length cfg.Cfg.blocks);
  Array.iteri
    (fun i (b : Cfg.block) ->
      if i > 0 then
        checkb "frozen array sorted and disjoint" true
          (Int64.unsigned_compare cfg.Cfg.blocks_sorted.(i - 1).Cfg.b_end
             b.Cfg.b_start
          <= 0))
    cfg.Cfg.blocks_sorted;
  Hashtbl.iter
    (fun start (b : Cfg.block) ->
      checkb "key is start" true (Int64.equal start b.Cfg.b_start);
      (* 2. instruction addresses ascend and cover [start, end) *)
      let rec walk expected = function
        | [] -> checkb "insns end at block end" true (Int64.equal expected b.Cfg.b_end)
        | i :: rest ->
            checkb "insn at expected addr" true
              (Int64.equal i.Instruction.addr expected);
            walk (Instruction.next_addr i) rest
      in
      walk b.Cfg.b_start b.Cfg.b_insns;
      (* 3. every resolved edge lands on a block start *)
      List.iter
        (fun e ->
          match e.Cfg.e_dst with
          | Cfg.T_addr a ->
              checkb
                (Printf.sprintf "edge target 0x%Lx is block start" a)
                true
                (Cfg.block_at cfg a <> None
                || e.Cfg.ek = Cfg.E_call || e.Cfg.ek = Cfg.E_tail_call)
          | Cfg.T_unknown -> ())
        b.Cfg.b_out)
    cfg.Cfg.blocks;
  (* 4. in-edges mirror out-edges *)
  let count_out =
    Hashtbl.fold
      (fun _ b acc ->
        acc
        + List.length
            (List.filter
               (fun e ->
                 match e.Cfg.e_dst with
                 | Cfg.T_addr a -> Cfg.block_at cfg a <> None
                 | Cfg.T_unknown -> false)
               b.Cfg.b_out))
      cfg.Cfg.blocks 0
  in
  let count_in =
    Hashtbl.fold (fun _ b acc -> acc + List.length b.Cfg.b_in) cfg.Cfg.blocks 0
  in
  checki "in edges mirror out edges" count_out count_in

let test_function_names () =
  let st, _ =
    build_symtab ~funcs:[ ("main", "main"); ("work", "work") ]
      invariant_program
  in
  let cfg = Parser.parse st in
  checks "symbol name used" "work" (find_func cfg "work").Cfg.f_name

(* The differential gate at unit-test scale: the frozen sequential
   reference parser and the parallel engine at 1/2/4/8 requested
   domains (clamped to the core count) must produce structurally
   identical CFGs. *)
let check_all_domains name st =
  let ref_cfg = Check_api.Refparser.parse st in
  List.iter
    (fun d ->
      let cfg = Parser.parse ~domains:d st in
      match Cfg_diff.diff ref_cfg cfg with
      | [] -> ()
      | diffs ->
          Alcotest.failf "%s: %d CFG differences at domains=%d, e.g. %s" name
            (List.length diffs) d (List.hd diffs))
    [ 1; 2; 4; 8 ]

let test_parallel_parse_agrees () =
  let st, _ =
    build_symtab ~funcs:[ ("main", "main"); ("work", "work") ]
      invariant_program
  in
  check_all_domains "invariant program" st;
  let cfg1 = Parser.parse ~domains:1 st in
  let cfg4 = Parser.parse ~domains:4 st in
  checki "same block count" (Cfg.n_blocks cfg1) (Cfg.n_blocks cfg4);
  checki "same function count"
    (List.length (Cfg.functions cfg1))
    (List.length (Cfg.functions cfg4))

let test_parallel_parse_mutatees () =
  List.iter
    (fun (name, src) ->
      let c = Minicc.Driver.compile src in
      check_all_domains name (Symtab.of_image c.Minicc.Driver.image))
    [
      ("fib", Minicc.Programs.fib);
      ("switch", Minicc.Programs.switch_demo);
      ("matmul", Minicc.Programs.matmul ~n:4 ~reps:1);
    ]

(* A hostile stream on which a round's task raises mid-fan-out: the
   failure is re-raised after the join, the same at every width. *)
let test_parallel_parse_failure () =
  let st = Check_api.Parsediff.fuzz_symtab ~seed:4008L ~len:96 in
  let expected =
    match Parser.parse ~domains:1 st with
    | _ -> Alcotest.fail "domains=1 parsed the hostile stream"
    | exception (Dyn_util.Interval_map.Overlap _ as e) -> e
  in
  Alcotest.check_raises "domains=2 raises as domains=1" expected (fun () ->
      ignore (Parser.parse ~domains:2 st))

let () =
  Alcotest.run "parse"
    [
      ( "shapes",
        [
          Alcotest.test_case "straight line" `Quick test_straight_line;
          Alcotest.test_case "diamond" `Quick test_diamond;
          Alcotest.test_case "block splitting" `Quick test_block_splitting;
        ] );
      ( "classification",
        [
          Alcotest.test_case "call discovery" `Quick test_call_discovery;
          Alcotest.test_case "tail call" `Quick test_tail_call;
          Alcotest.test_case "auipc+jalr fusion" `Quick test_auipc_jalr_fusion;
          Alcotest.test_case "return via ra" `Quick test_return_via_ra;
          Alcotest.test_case "jump table" `Quick test_jump_table;
          Alcotest.test_case "unresolved indirect" `Quick test_unresolved_indirect;
          Alcotest.test_case "constprop refinement" `Quick
            test_constprop_refinement;
          Alcotest.test_case "constprop join conflict" `Quick
            test_constprop_join_conflict;
        ] );
      ( "loops",
        [
          Alcotest.test_case "single loop" `Quick test_loop_detection;
          Alcotest.test_case "nested loops" `Quick test_nested_loops;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "gap parsing" `Quick test_gap_parsing;
          Alcotest.test_case "invariants" `Quick test_invariants;
          Alcotest.test_case "function names" `Quick test_function_names;
          Alcotest.test_case "parallel parse agrees" `Quick
            test_parallel_parse_agrees;
          Alcotest.test_case "parallel parse mutatees" `Quick
            test_parallel_parse_mutatees;
          Alcotest.test_case "parallel parse failure" `Quick
            test_parallel_parse_failure;
        ] );
    ]
