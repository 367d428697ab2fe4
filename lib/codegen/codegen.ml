(* CodeGenAPI (paper §2.2, §3.2.5): lower machine-independent snippet
   ASTs to RV64GC instruction sequences.

   Extension awareness: the target profile (discovered by SymtabAPI) is
   consulted before emitting instructions from optional extensions —
   e.g. a [Divide] snippet on a profile without M is a [Codegen_error]
   rather than an illegal instruction in the mutatee (paper §3.1.1).
   Immediate materialization uses the lui/addi/slli sequences of §3.2.5
   via [Build.li].

   Instruction selection (the shape is in [Snippet], shared with
   [Snippet.regs_needed]): operands already in a register (locals,
   mutatee registers, zero) are read in place; a constant right operand
   that fits takes the immediate form (addi/andi/ori/xori/slli/srli/
   slti); [e + k] folds into a load/store offset; an [If]/[While] on a
   comparison is one compare-and-branch, and an empty else emits no
   jump.  [Let] holds its value in the head scratch register for the
   body. *)

open Riscv

exception Codegen_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Codegen_error s)) fmt

type ctx = {
  profile : Ext.profile;
  scratch : Reg.t list; (* integer registers free for snippet evaluation *)
  mutable label_counter : int;
  label_prefix : string;
}

let create_ctx ?(label_prefix = "snip") ~profile ~scratch () =
  (* snippet scratch registers must be integer and not sp/zero *)
  List.iter
    (fun r ->
      if not (Reg.is_int r) || r = Reg.zero || r = Reg.sp then
        fail "bad scratch register %s" (Reg.name r))
    scratch;
  { profile; scratch; label_counter = 0; label_prefix }

let fresh_label ctx tag =
  ctx.label_counter <- ctx.label_counter + 1;
  Printf.sprintf ".L%s_%s%d" ctx.label_prefix tag ctx.label_counter

let require ctx ext what =
  if not (Ext.supports ctx.profile ext) then
    fail "%s requires the %s extension, absent from target profile %s" what
      (Ext.name ext) (Ext.arch_string ctx.profile)

let load_op width = function
  | false -> (
      match width with
      | 1 -> Op.LBU
      | 2 -> Op.LHU
      | 4 -> Op.LWU
      | 8 -> Op.LD
      | w -> fail "bad load width %d" w)
  | true -> (
      match width with
      | 1 -> Op.LB
      | 2 -> Op.LH
      | 4 -> Op.LW
      | 8 -> Op.LD
      | w -> fail "bad load width %d" w)

let store_op = function
  | 1 -> Op.SB
  | 2 -> Op.SH
  | 4 -> Op.SW
  | 8 -> Op.SD
  | w -> fail "bad store width %d" w

(* A constant, expanded here rather than as an [Asm.Li] the assembler
   would re-expand on every relaxation pass. *)
let li rd v = List.map (fun i -> Asm.Insn i) (Build.li rd v)

(* Materialize the address of [addr] for a memory access: a single lui
   with the low 12 bits folded into the access offset when the high part
   is a sign-extended 32-bit value; otherwise a full li sequence
   ("optimize the code when possible", paper 2). *)
let materialize_addr (scratch : Reg.t) (addr : int64) :
    Asm.item list * Reg.t * int =
  let lo = Dyn_util.Bits.sign_extend (Int64.to_int (Int64.logand addr 0xFFFL)) 12 in
  let hi = Int64.sub addr (Int64.of_int lo) in
  if Dyn_util.Bits.fits_signed hi 32 then
    let hi20 = Int64.to_int (Int64.shift_right hi 12) land 0xFFFFF in
    ([ Asm.Insn (Build.lui scratch hi20) ], scratch, lo)
  else (li scratch addr, scratch, 0)

(* Locals bound by enclosing [Let]s, innermost first. *)
type env = (Snippet.local * Reg.t) list

let local_reg (env : env) l =
  match List.assoc_opt l env with
  | Some r -> r
  | None -> fail "unbound snippet local %s" l

(* The register an in-place operand ([Snippet.in_place]) lives in. *)
let place env (e : Snippet.expr) =
  match e with
  | Snippet.Local l -> local_reg env l
  | Snippet.Param n ->
      if n < 0 || n > 7 then fail "Param %d out of range" n;
      Reg.a0 + n
  | Snippet.Reg r -> r
  | _ -> Reg.zero

(* Every function below evaluates into the scratch list [avail]: a value
   that needs a register lands in its head, an in-place operand is
   returned where it lives, and exactly the first
   [Snippet.expr_regs_needed] registers of [avail] are written. *)
let rec gen_expr ctx env (avail : Reg.t list) (e : Snippet.expr) :
    Asm.item list * Reg.t =
  if Snippet.in_place e then ([], place env e)
  else
    match avail with
    | [] -> fail "out of scratch registers (snippet too complex for this point)"
    | dst :: _ -> (
        match e with
        | Snippet.Const v -> (li dst v, dst)
        | Snippet.Var v ->
            gen_load ctx env avail v.Snippet.v_size (Snippet.Abs v.Snippet.v_addr)
        | Snippet.Load (w, a) -> gen_load ctx env avail w (Snippet.address a)
        | Snippet.Reg r ->
            require ctx Ext.D "reading an FP register";
            ([ Asm.Insn (Build.fmv_x_d dst r) ], dst)
        | Snippet.Cycle ->
            require ctx Ext.Zicsr "reading the cycle CSR";
            ([ Asm.Insn (Build.rdcycle dst) ], dst)
        | Snippet.Not e ->
            let items, r = gen_expr ctx env avail e in
            (items @ [ Asm.Insn (Build.seqz dst r) ], dst)
        | Snippet.Bin (op, a, b) -> (
            let a, b = Snippet.canon op a b in
            match Snippet.imm_form op b with
            | Some k ->
                let items, ra = gen_expr ctx env avail a in
                (items @ gen_binop_imm dst op ra (Int64.to_int k), dst)
            | None ->
                let items, ra, rb = gen_pair ctx env avail a b in
                (items @ gen_binop ctx dst op ra rb, dst))
        | Snippet.Param _ | Snippet.Local _ -> assert false (* in place *))

(* Both operands of a binary operation or compare-and-branch, evaluated
   in the order that needs fewer registers. *)
and gen_pair ctx env avail a b : Asm.item list * Reg.t * Reg.t =
  let a_first = Snippet.a_first a b in
  let first, second = if a_first then (a, b) else (b, a) in
  let i1, r1 = gen_expr ctx env avail first in
  let avail2 = if Snippet.in_place first then avail else List.tl avail in
  let i2, r2 = gen_expr ctx env avail2 second in
  (i1 @ i2, (if a_first then r1 else r2), if a_first then r2 else r1)

(* A memory operand as (items, base register, offset). *)
and gen_addr ctx env avail (addr : Snippet.address) : Asm.item list * Reg.t * int =
  match addr with
  | Snippet.Abs c when Snippet.fits_imm12 c -> ([], Reg.zero, Int64.to_int c)
  | Snippet.Abs c -> (
      match avail with
      | dst :: _ -> materialize_addr dst c
      | [] -> fail "out of scratch registers (snippet too complex for this point)")
  | Snippet.Based (b, off) ->
      let items, r = gen_expr ctx env avail b in
      (items, r, off)

and gen_load ctx env avail w addr =
  let dst = List.hd avail in
  let items, rb, off = gen_addr ctx env avail addr in
  (items @ [ Asm.Insn (Build.load (load_op w false) dst off rb) ], dst)

and gen_binop_imm dst op ra k : Asm.item list =
  let i x = Asm.Insn x in
  match op with
  | Snippet.Plus | Snippet.Minus -> [ i (Build.addi dst ra k) ]
  | Snippet.BAnd -> [ i (Build.andi dst ra k) ]
  | Snippet.BOr -> [ i (Build.ori dst ra k) ]
  | Snippet.BXor -> [ i (Build.xori dst ra k) ]
  | Snippet.Shl -> [ i (Build.slli dst ra k) ]
  | Snippet.Shr -> [ i (Build.srli dst ra k) ]
  | Snippet.Lt | Snippet.Le -> [ i (Build.slti dst ra k) ]
  | Snippet.Ge | Snippet.Gt -> [ i (Build.slti dst ra k); i (Build.xori dst dst 1) ]
  | Snippet.Eq when k = 0 -> [ i (Build.seqz dst ra) ]
  | Snippet.Ne when k = 0 -> [ i (Build.snez dst ra) ]
  | Snippet.Eq -> [ i (Build.addi dst ra k); i (Build.seqz dst dst) ]
  | Snippet.Ne -> [ i (Build.addi dst ra k); i (Build.snez dst dst) ]
  | Snippet.Times | Snippet.Divide | Snippet.Mod -> assert false (* no imm form *)

and gen_binop ctx dst op ra rb : Asm.item list =
  let i x = Asm.Insn x in
  match op with
  | Snippet.Plus -> [ i (Build.add dst ra rb) ]
  | Snippet.Minus -> [ i (Build.sub dst ra rb) ]
  | Snippet.Times ->
      require ctx Ext.M "multiplication";
      [ i (Build.mul dst ra rb) ]
  | Snippet.Divide ->
      require ctx Ext.M "division";
      [ i (Build.div dst ra rb) ]
  | Snippet.Mod ->
      require ctx Ext.M "remainder";
      [ i (Build.rem dst ra rb) ]
  | Snippet.BAnd -> [ i (Build.and_ dst ra rb) ]
  | Snippet.BOr -> [ i (Build.or_ dst ra rb) ]
  | Snippet.BXor -> [ i (Build.xor dst ra rb) ]
  | Snippet.Shl -> [ i (Build.sll dst ra rb) ]
  | Snippet.Shr -> [ i (Build.srl dst ra rb) ]
  | Snippet.Eq -> [ i (Build.sub dst ra rb); i (Build.seqz dst dst) ]
  | Snippet.Ne -> [ i (Build.sub dst ra rb); i (Build.snez dst dst) ]
  | Snippet.Lt -> [ i (Build.slt dst ra rb) ]
  | Snippet.Ge -> [ i (Build.slt dst ra rb); i (Build.xori dst dst 1) ]
  | Snippet.Gt -> [ i (Build.slt dst rb ra) ]
  | Snippet.Le -> [ i (Build.slt dst rb ra); i (Build.xori dst dst 1) ]

let gen_store ctx env avail w addr v : Asm.item list =
  let op = store_op w in
  if Snippet.store_addr_first addr v then
    let ia, rb, off = gen_addr ctx env avail addr in
    let avail2 = if Snippet.addr_own addr = 0 then avail else List.tl avail in
    let iv, rv = gen_expr ctx env avail2 v in
    ia @ iv @ [ Asm.Insn (Build.store op rv off rb) ]
  else
    let iv, rv = gen_expr ctx env avail v in
    let avail2 = if Snippet.in_place v then avail else List.tl avail in
    let ia, rb, off = gen_addr ctx env avail2 addr in
    iv @ ia @ [ Asm.Insn (Build.store op rv off rb) ]

(* Branch to [target] when [c] is false: a comparison becomes one
   compare-and-branch on its inverse, anything else a beq against zero. *)
let gen_branch_unless ctx env avail (c : Snippet.expr) target : Asm.item list =
  match c with
  | Snippet.Bin (op, a, b) when Snippet.is_compare op ->
      let items, ra, rb = gen_pair ctx env avail a b in
      let br, r1, r2 =
        match op with
        | Snippet.Eq -> (Op.BNE, ra, rb)
        | Snippet.Ne -> (Op.BEQ, ra, rb)
        | Snippet.Lt -> (Op.BGE, ra, rb)
        | Snippet.Ge -> (Op.BLT, ra, rb)
        | Snippet.Gt -> (Op.BGE, rb, ra)
        | _ (* Le *) -> (Op.BLT, rb, ra)
      in
      items @ [ Asm.Br (br, r1, r2, target) ]
  | c ->
      let items, r = gen_expr ctx env avail c in
      items @ [ Asm.Br (Op.BEQ, r, Reg.zero, target) ]

(* caller-saved integer registers + ra, saved around snippet Calls *)
let call_saved = Reg.ra :: Reg.temp_regs @ Reg.arg_regs

let slot_of saved r =
  let rec go k = function
    | [] -> None
    | x :: rest -> if x = r then Some (8 * k) else go (k + 1) rest
  in
  go 0 saved

(* Move argument [k] into a[k].  Registers in the save frame [saved]
   may already be overwritten by earlier argument moves, so operands
   living there reload their saved value; other arguments evaluate in
   scratch that excludes the argument registers already loaded. *)
let gen_arg ctx env avail ~saved k (arg : Snippet.expr) : Asm.item list =
  let dst = Reg.a0 + k in
  let reload r =
    match slot_of saved r with
    | Some off -> Some [ Asm.Insn (Build.ld dst off Reg.sp) ]
    | None -> None
  in
  let from_frame =
    match arg with
    | Snippet.Param n when n >= 0 && n <= 7 -> reload (Reg.a0 + n)
    | Snippet.Reg r when Reg.is_int r -> reload r
    | Snippet.Local l -> reload (local_reg env l)
    | _ -> None
  in
  match from_frame with
  | Some items -> items
  | None ->
      let loaded = List.init k (fun j -> Reg.a0 + j) in
      let avail = List.filter (fun r -> not (List.mem r loaded)) avail in
      let items, rv = gen_expr ctx env avail arg in
      items @ [ Asm.Insn (Build.mv dst rv) ]

(* Save [saved] in a fresh frame below sp; returns (saves, restores). *)
let frame saved =
  let size =
    Dyn_util.Bits.align_up (Int64.of_int (8 * List.length saved)) 16 |> Int64.to_int
  in
  ( Asm.Insn (Build.addi Reg.sp Reg.sp (-size))
    :: List.mapi (fun k r -> Asm.Insn (Build.sd r (8 * k) Reg.sp)) saved,
    List.mapi (fun k r -> Asm.Insn (Build.ld r (8 * k) Reg.sp)) saved
    @ [ Asm.Insn (Build.addi Reg.sp Reg.sp size) ] )

let rec gen_stmt ctx env avail (s : Snippet.stmt) : Asm.item list =
  match s with
  | Snippet.Nop -> []
  | Snippet.Set (v, e) ->
      gen_store ctx env avail v.Snippet.v_size (Snippet.Abs v.Snippet.v_addr) e
  | Snippet.Store (w, addr, value) ->
      gen_store ctx env avail w (Snippet.address addr) value
  | Snippet.Let (l, e, body) -> (
      match avail with
      | [] -> fail "out of scratch registers (snippet too complex for this point)"
      | dst :: rest ->
          let items, r = gen_expr ctx env avail e in
          let items = if r = dst then items else items @ [ Asm.Insn (Build.mv dst r) ] in
          items @ gen_stmts ctx ((l, dst) :: env) rest body)
  | Snippet.If (c, then_b, else_b) -> (
      let l_else = fresh_label ctx "else" in
      let head = gen_branch_unless ctx env avail c l_else in
      let then_i = gen_stmts ctx env avail then_b in
      match else_b with
      | [] -> head @ then_i @ [ Asm.Label l_else ]
      | _ ->
          let l_end = fresh_label ctx "end" in
          head @ then_i
          @ [ Asm.J l_end; Asm.Label l_else ]
          @ gen_stmts ctx env avail else_b
          @ [ Asm.Label l_end ])
  | Snippet.While (c, body) ->
      let l_loop = fresh_label ctx "loop" and l_end = fresh_label ctx "end" in
      [ Asm.Label l_loop ]
      @ gen_branch_unless ctx env avail c l_end
      @ gen_stmts ctx env avail body
      @ [ Asm.J l_loop; Asm.Label l_end ]
  | Snippet.Call (faddr, args) ->
      if List.length args > 8 then fail "more than 8 call arguments";
      (* save every caller-saved register (and ra) around the call; the
         mutatee's state must be transparent to instrumentation.  The
         target goes through ra, which the call overwrites anyway. *)
      let saves, restores = frame call_saved in
      saves
      @ List.concat (List.mapi (gen_arg ctx env avail ~saved:call_saved) args)
      @ li Reg.ra faddr
      @ [ Asm.Insn (Build.call_reg Reg.ra) ]
      @ restores
  | Snippet.Scall (num, args) ->
      if List.length args > 6 then fail "more than 6 syscall arguments";
      (* an ecall only clobbers the a-registers it uses: the argument
         registers, a7 (the number) and a0 (the return value).  Save just
         those below sp so the syscall is invisible to the mutatee. *)
      let saved = Reg.a7 :: List.init (max 1 (List.length args)) (fun k -> Reg.a0 + k) in
      let saves, restores = frame saved in
      saves
      @ List.concat (List.mapi (gen_arg ctx env avail ~saved) args)
      @ li Reg.a7 (Int64.of_int num)
      @ [ Asm.Insn Build.ecall ]
      @ restores

and gen_stmts ctx env avail stmts = List.concat_map (gen_stmt ctx env avail) stmts

(* Generate the full item sequence for a snippet.  [ctx.scratch] must
   provide at least [Snippet.regs_needed] registers (PatchAPI arranges
   this, spilling if the liveness analysis found too few dead ones). *)
let generate ctx (stmts : Snippet.stmt list) : Asm.item list =
  let needed = Snippet.regs_needed stmts in
  if List.length ctx.scratch < needed then
    fail "snippet needs %d scratch registers, %d available" needed
      (List.length ctx.scratch);
  List.iter
    (fun r ->
      if List.mem r ctx.scratch then
        fail "snippet reads %s, which is also a scratch register" (Reg.name r))
    (Snippet.reads stmts);
  gen_stmts ctx [] ctx.scratch stmts
