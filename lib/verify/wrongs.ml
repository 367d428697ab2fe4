(* The seeded wrong-rewrite corpus: defect classes that preserve every
   structural invariant rvlint's verifier checks (springboard encoding
   and boundaries, relocated def/use sets, trampoline stack balance,
   scratch deadness) and are therefore provably invisible to it — but
   change the semantics of the relocated code, so the symbolic tier must
   disprove equivalence.

   Each case carries the original binary, its manifest, the healthy
   rewritten image (must verify structurally AND symbolically) and the
   defective image (must still verify structurally, must fail
   symbolically). *)

open Riscv
open Parse_api
open Patch_api

type case = {
  wc_name : string;
  wc_desc : string;
  wc_symtab : Symtab.t;
  wc_cfg : Cfg.t;
  wc_manifest : Manifest.t;
  wc_healthy : Elfkit.Types.image;
  wc_bad : Elfkit.Types.image;
}

let text_base = 0x10000L

(* Far trampoline: every relocated jump/branch relaxes to its 4-byte
   form, so defects can be poked in place without changing widths. *)
let tramp_base = 0x80000L

let build_symtab ?(funcs = []) items =
  let r =
    Asm.assemble ~base:text_base ~symbols:(fun _ -> None) items
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
  let img =
    Elfkit.Types.image ~entry:text_base ~symbols
      ~e_flags:Elfkit.Types.(ef_riscv_rvc lor ef_riscv_float_abi_double)
      [
        Elfkit.Types.section ".text" r.Asm.code ~s_addr:text_base
          ~s_flags:Elfkit.Types.(shf_alloc lor shf_execinstr) ~s_addralign:4;
        attrs;
      ]
  in
  Symtab.of_image img

(* Overwrite bytes of a rewritten image in place (regions alias the
   section buffers). *)
let poke img addr bytes =
  let st = Symtab.of_image img in
  match Symtab.region_at st addr with
  | Some r ->
      Bytes.blit bytes 0 r.Symtab.rg_data
        (Int64.to_int (Int64.sub addr r.Symtab.rg_addr))
        (Bytes.length bytes)
  | None -> failwith (Printf.sprintf "wrongs: no region at 0x%Lx" addr)

(* Re-encode [i] at the width it was decoded with, so a poke never
   shifts its neighbours. *)
let encode_same_width (orig_len : int) (i : Insn.t) =
  let b = Encode.encode ~try_compress:(orig_len = 2) i in
  if Bytes.length b <> orig_len then
    failwith
      (Printf.sprintf "wrongs: %s re-encodes to %d bytes, expected %d"
         (Op.mnemonic i.Insn.op) (Bytes.length b) orig_len);
  b

(* Linear decode of the trampoline span owned by the (single) manifest
   entry. *)
let span_insns img (m : Manifest.t) (e : Manifest.entry) =
  let hi = Manifest.span_end (Manifest.index m) e in
  let st = Symtab.of_image img in
  let rec go pc acc =
    if Int64.compare pc hi >= 0 then List.rev acc
    else
      match Symtab.region_at st pc with
      | None -> List.rev acc
      | Some r -> (
          match
            Instruction.decode ~base:r.Symtab.rg_addr r.Symtab.rg_data
              ~pos:(Int64.to_int (Int64.sub pc r.Symtab.rg_addr))
          with
          | None -> go (Int64.add pc 2L) acc
          | Some ins ->
              go (Int64.add pc (Int64.of_int (Instruction.length ins)))
                (ins :: acc))
  in
  go e.Manifest.me_tramp []

(* Instrument [func]'s entry with a counter bump and rewrite; done twice
   (the rewrite is deterministic) so the defect can be poked into an
   independent image. *)
let rewrite_once ?use_dead_regs ?(snippet = fun c -> [ Codegen_api.Snippet.incr c ])
    st cfg func =
  let rw = Rewriter.create ~tramp_base ?use_dead_regs st cfg in
  let c = Rewriter.allocate_var rw "c" 8 in
  let f = List.find (fun f -> f.Cfg.f_name = func) (Cfg.functions cfg) in
  Rewriter.insert rw (Option.get (Point.func_entry cfg f)) (snippet c);
  let img = Rewriter.rewrite rw in
  (img, Option.get (Rewriter.manifest rw))

let make_case ~name ~desc ?use_dead_regs ?snippet ~funcs ~func items mutate =
  let st = build_symtab ~funcs items in
  let cfg = Parser.parse st in
  let healthy, m = rewrite_once ?use_dead_regs ?snippet st cfg func in
  let bad, _ = rewrite_once ?use_dead_regs ?snippet st cfg func in
  let e = List.hd m.Manifest.m_entries in
  mutate bad m e;
  {
    wc_name = name;
    wc_desc = desc;
    wc_symtab = st;
    wc_cfg = cfg;
    wc_manifest = m;
    wc_healthy = healthy;
    wc_bad = bad;
  }

let find_insn insns p =
  match List.find_opt p insns with
  | Some i -> i
  | None -> failwith "wrongs: expected instruction not found in trampoline"

(* --- class 1: store reordered past a load -------------------------------- *)

let store_load_reorder () =
  make_case ~name:"store-load-reorder"
    ~desc:
      "the trampoline executes a (possibly aliasing) load before the \
       store that originally preceded it"
    ~funcs:[ ("vic", "vic") ] ~func:"vic"
    [
      Asm.Label "vic";
      Asm.Insn (Build.sd Reg.a1 0 Reg.a0);
      Asm.Insn (Build.ld Reg.a3 0 Reg.a2);
      Asm.Insn (Build.add Reg.a0 Reg.a1 Reg.a3);
      Asm.Insn Build.ret;
    ]
    (fun bad m e ->
      let insns = span_insns bad m e in
      let sd =
        find_insn insns (fun i ->
            Instruction.op i = Op.SD && i.Instruction.insn.Insn.rs1 = Reg.a0)
      in
      let ld =
        find_insn insns (fun i ->
            Instruction.op i = Op.LD && i.Instruction.insn.Insn.rs1 = Reg.a2)
      in
      let sd_len = Instruction.length sd and ld_len = Instruction.length ld in
      if
        Int64.add sd.Instruction.addr (Int64.of_int sd_len)
        <> ld.Instruction.addr
      then failwith "wrongs: sd/ld not adjacent in trampoline";
      (* swap the two encodings in place *)
      poke bad sd.Instruction.addr
        (encode_same_width ld_len ld.Instruction.insn);
      poke bad
        (Int64.add sd.Instruction.addr (Int64.of_int ld_len))
        (encode_same_width sd_len sd.Instruction.insn))

(* --- class 2: relocated jump with a wrong offset -------------------------- *)

let wrong_reloc_offset () =
  make_case ~name:"wrong-reloc-offset"
    ~desc:
      "the trampoline's continuation jump resumes 4 bytes past the \
       block's fall-through address, skipping an instruction"
    ~funcs:[ ("brf", "brf") ] ~func:"brf"
    [
      Asm.Label "brf";
      Asm.Insn (Build.addi Reg.a2 Reg.a2 1);
      Asm.Br (Op.BNE, Reg.a0, Reg.a1, "brx");
      Asm.Insn (Build.addi Reg.a2 Reg.a2 2);
      Asm.Insn (Build.addi Reg.a2 Reg.a2 4);
      Asm.Label "brx";
      Asm.Insn Build.ret;
    ]
    (fun bad m e ->
      let insns = span_insns bad m e in
      (* the continuation jump back to the fall-through address *)
      let tail =
        find_insn insns (fun i ->
            Instruction.op i = Op.JAL
            && i.Instruction.insn.Insn.rd = 0
            && Instruction.target i = Some e.Manifest.me_block_end)
      in
      let len = Instruction.length tail in
      let off =
        Int64.to_int
          (Int64.sub
             (Int64.add e.Manifest.me_block_end 4L)
             tail.Instruction.addr)
      in
      poke bad tail.Instruction.addr
        (encode_same_width len (Build.jal Reg.zero off)))

(* --- class 3: dropped CSR side effect ------------------------------------- *)

let dropped_csr () =
  make_case ~name:"dropped-csr-effect"
    ~desc:
      "a relocated csrrs (CSR write side effect) is replaced by an addi \
       with the identical def/use sets"
    ~funcs:[ ("csr", "csr") ] ~func:"csr"
    [
      Asm.Label "csr";
      Asm.Insn (Build.addi Reg.s1 Reg.s1 1);
      Asm.Insn (Build.csrrs Reg.zero 0x340 Reg.s1);
      Asm.Insn Build.ret;
    ]
    (fun bad m e ->
      let insns = span_insns bad m e in
      let csr = find_insn insns (fun i -> Instruction.op i = Op.CSRRS) in
      let len = Instruction.length csr in
      (* same uses ({s1}), same defs ({}) — structurally identical *)
      poke bad csr.Instruction.addr
        (encode_same_width len (Build.addi Reg.zero Reg.s1 0)))

(* --- class 4: borrowed scratch restored wrong (live-out) ------------------ *)

let scratch_live_out () =
  make_case ~name:"scratch-live-out"
    ~desc:
      "the spill-restore loads swap their slots, so borrowed registers \
       leave the snippet holding each other's values"
    ~use_dead_regs:false ~funcs:[ ("lv", "lv") ] ~func:"lv"
    (* c := (c ^ 5000) + (c ^ 5000) needs three scratch registers, so
       two borrowed ones besides t1 (t0, t2) are restored *)
    ~snippet:(fun c ->
      let open Codegen_api.Snippet in
      let x = Bin (BXor, Var c, Const 5000L) in
      [ Set (c, Bin (Plus, x, x)) ])
    [
      Asm.Label "lv";
      Asm.Insn (Build.add Reg.a0 Reg.a0 Reg.a1);
      Asm.Insn Build.ret;
    ]
    (fun bad m e ->
      let insns = span_insns bad m e in
      let restores =
        List.filter
          (fun i ->
            Instruction.op i = Op.LD
            && i.Instruction.insn.Insn.rs1 = Reg.sp
            (* not t1: the checker excuses it as relaxation scratch *)
            && i.Instruction.insn.Insn.rd <> Reg.t1)
          insns
      in
      match restores with
      | r1 :: r2 :: _ ->
          let swap dst src =
            poke bad dst.Instruction.addr
              (encode_same_width (Instruction.length dst)
                 (Build.ld
                    (Reg.x dst.Instruction.insn.Insn.rd)
                    (Int64.to_int src.Instruction.insn.Insn.imm)
                    Reg.sp))
          in
          swap r1 r2;
          swap r2 r1
      | l ->
          failwith
            (Printf.sprintf "wrongs: expected 2 restore loads, found %d"
               (List.length l)))

(* --- class 5: flipped branch sense ---------------------------------------- *)

let flipped_branch () =
  make_case ~name:"flipped-branch-sense"
    ~desc:
      "the relocated conditional branch tests the opposite sense with \
       the identical registers and target"
    ~funcs:[ ("flp", "flp") ] ~func:"flp"
    [
      Asm.Label "flp";
      Asm.Insn (Build.addi Reg.a2 Reg.a2 1);
      Asm.Br (Op.BNE, Reg.a0, Reg.a1, "fx");
      Asm.Insn (Build.addi Reg.a0 Reg.a0 1);
      Asm.Label "fx";
      Asm.Insn Build.ret;
    ]
    (fun bad m e ->
      let insns = span_insns bad m e in
      let br =
        find_insn insns (fun i -> Op.is_cond_branch (Instruction.op i))
      in
      let i = br.Instruction.insn in
      let flipped =
        match i.Insn.op with
        | Op.BEQ -> Op.BNE
        | Op.BNE -> Op.BEQ
        | Op.BLT -> Op.BGE
        | Op.BGE -> Op.BLT
        | Op.BLTU -> Op.BGEU
        | Op.BGEU -> Op.BLTU
        | op -> failwith ("wrongs: unexpected branch " ^ Op.mnemonic op)
      in
      poke bad br.Instruction.addr
        (encode_same_width (Instruction.length br)
           (Insn.make ~rd:i.Insn.rd ~rs1:i.Insn.rs1 ~rs2:i.Insn.rs2
              ~imm:i.Insn.imm flipped)))

(* --- class 6: corrupted relocated immediate ------------------------------- *)

let wrong_immediate () =
  make_case ~name:"wrong-immediate"
    ~desc:
      "a relocated addi computes with a corrupted immediate (same \
       registers, same def/use sets)"
    ~funcs:[ ("imm", "imm") ] ~func:"imm"
    [
      Asm.Label "imm";
      Asm.Insn (Build.addi Reg.a0 Reg.a0 2);
      Asm.Insn Build.ret;
    ]
    (fun bad m e ->
      let insns = span_insns bad m e in
      let addi =
        find_insn insns (fun i ->
            Instruction.op i = Op.ADDI
            && i.Instruction.insn.Insn.rd = Reg.a0
            && i.Instruction.insn.Insn.imm = 2L)
      in
      poke bad addi.Instruction.addr
        (encode_same_width (Instruction.length addi)
           (Build.addi Reg.a0 Reg.a0 3)))

let corpus () =
  [
    store_load_reorder ();
    wrong_reloc_offset ();
    dropped_csr ();
    scratch_live_out ();
    flipped_branch ();
    wrong_immediate ();
  ]
