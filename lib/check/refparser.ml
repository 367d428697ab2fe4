(* The sequential reference parser.

   This is the original single-threaded traversal parser (paper §2.1
   ParseAPI, §3.2.3), kept verbatim as the oracle and bench baseline for
   the domain-parallel engine in {!Parse_api.Parser}.  It lives with
   the checkers because no product code path runs it: `rvcheck
   parsediff` and the parse bench diff every parallel CFG against this
   one and require zero differences.  Do not optimize it — its
   per-lookup linear scans (decode via [Symtab.region_at], jump-table
   guards via a full block scan) are the baseline the engine's speedup
   gate measures against.

   Parsing starts from known entry points — the ELF entry and function
   symbols — and follows control-flow transfers, discovering new function
   entries at call and tail-call sites.  jal/jalr classification follows
   the paper's decision procedure: examine the link register and, for
   jalr, backward-slice the target register; constants are checked
   against code regions and function spans; otherwise try jump-table
   analysis; otherwise mark the transfer unresolved.  Afterwards,
   gap parsing scans uncovered code-region bytes for function prologues
   (paper §2.1 "parsing may leave gaps"). *)

open Riscv
open Parse_api
open Cfg

let src = Logs.Src.create "check_api.refparser"

module Log = (val Logs.src_log src : Logs.LOG)

type ctx = {
  cfg : Cfg.t;
  func_queue : int64 Queue.t;
  mutable known_entries : I64Set.t;
  mutable entries_sorted : int64 array;
  mutable block_map : block Dyn_util.Interval_map.t;
      (* [start, end) -> block; local to the build, Cfg keeps only the
         frozen array *)
}

let refresh_entries ctx =
  ctx.entries_sorted <- Array.of_list (I64Set.elements ctx.known_entries)

(* The address span [entry, next-entry-or-region-end) used for the
   "within the same function" test of §3.2.3. *)
let function_span ctx entry =
  let arr = ctx.entries_sorted in
  let n = Array.length arr in
  let rec bsearch lo hi best =
    if lo >= hi then best
    else
      let mid = (lo + hi) / 2 in
      if Int64.compare arr.(mid) entry > 0 then bsearch lo mid (Some arr.(mid))
      else bsearch (mid + 1) hi best
  in
  match bsearch 0 n None with
  | Some a -> (entry, a)
  | None -> (
      match Symtab.region_at ctx.cfg.symtab entry with
      | Some r ->
          (entry, Int64.add r.Symtab.rg_addr (Int64.of_int r.Symtab.rg_size))
      | None -> (entry, Int64.add entry 0x100000L))

let add_entry ctx addr =
  if not (I64Set.mem addr ctx.known_entries) then begin
    ctx.known_entries <- I64Set.add addr ctx.known_entries;
    refresh_entries ctx;
    Queue.add addr ctx.func_queue
  end

let decode_at ctx addr : Instruction.t option =
  match Symtab.region_at ctx.cfg.symtab addr with
  | Some r when r.Symtab.rg_exec ->
      let pos = Int64.to_int (Int64.sub addr r.Symtab.rg_addr) in
      Instruction.decode ~base:r.Symtab.rg_addr r.Symtab.rg_data ~pos
  | _ -> None

let register_block ctx (b : block) =
  Hashtbl.replace ctx.cfg.blocks b.b_start b;
  ctx.block_map <- Dyn_util.Interval_map.add ctx.block_map b.b_start b.b_end b

let unregister_block ctx (b : block) =
  Hashtbl.remove ctx.cfg.blocks b.b_start;
  ctx.block_map <- Dyn_util.Interval_map.remove ctx.block_map b.b_start

let block_containing ctx addr =
  match Dyn_util.Interval_map.find_addr ctx.block_map addr with
  | Some (_, _, b) -> Some b
  | None -> None

(* Blocks already parsed that have an out-edge to [bstart]; used as guard
   candidates for jump-table bounds. *)
let predecessor_bodies ctx bstart =
  Hashtbl.fold
    (fun _ (g : block) acc ->
      if
        List.exists
          (fun e ->
            match e.e_dst with
            | T_addr a -> Int64.equal a bstart
            | T_unknown -> false)
          g.b_out
      then g.b_insns :: acc
      else acc)
    ctx.cfg.blocks []

(* The constant-target jalr cases of §3.2.3 (shared by parse-time
   resolution and the dataflow refinement pass). *)
let classify_const_jalr ctx ~(func : func) ~(bstart : int64) ~(next : int64)
    (i : Insn.t) (tgt : int64) : edge list =
  let mk ek dst = { ek; e_src = bstart; e_dst = dst } in
  let span = function_span ctx func.f_entry in
  let in_span a =
    let lo, hi = span in
    Int64.compare a lo >= 0 && Int64.compare a hi < 0
  in
  let is_known_entry a = I64Set.mem a ctx.known_entries in
  if i.Insn.rd = 0 then
    if in_span tgt && not (is_known_entry tgt) then [ mk E_jump (T_addr tgt) ]
    else begin
      add_entry ctx tgt;
      func.f_callees <- I64Set.add tgt func.f_callees;
      [ mk E_tail_call (T_addr tgt) ]
    end
  else begin
    add_entry ctx tgt;
    func.f_callees <- I64Set.add tgt func.f_callees;
    [ mk E_call (T_addr tgt); mk E_call_ft (T_addr next) ]
  end

(* Classification of a block terminator per §3.2.3. *)
let classify_terminator ctx ~(func : func) ~(bstart : int64)
    ~(body : Instruction.t list) (term : Instruction.t) : edge list =
  let addr = term.Instruction.addr in
  let i = term.Instruction.insn in
  let next = Instruction.next_addr term in
  let here = T_addr next in
  let symtab = ctx.cfg.symtab in
  let in_code a = Symtab.is_code_addr symtab a in
  let span = function_span ctx func.f_entry in
  let in_span a =
    let lo, hi = span in
    Int64.compare a lo >= 0 && Int64.compare a hi < 0
  in
  let is_known_entry a = I64Set.mem a ctx.known_entries in
  let mk ek dst = { ek; e_src = bstart; e_dst = dst } in
  match i.Insn.op with
  | op when Op.is_cond_branch op ->
      let tgt = Int64.add addr i.Insn.imm in
      [ mk E_taken (T_addr tgt); mk E_not_taken here ]
  | Op.JAL ->
      let tgt = Int64.add addr i.Insn.imm in
      if i.Insn.rd <> 0 then begin
        add_entry ctx tgt;
        func.f_callees <- I64Set.add tgt func.f_callees;
        [ mk E_call (T_addr tgt); mk E_call_ft here ]
      end
      else if
        (is_known_entry tgt && Int64.compare tgt func.f_entry <> 0)
        || not (in_span tgt)
      then begin
        (* a jump that actually represents a call: tail call *)
        add_entry ctx tgt;
        func.f_callees <- I64Set.add tgt func.f_callees;
        [ mk E_tail_call (T_addr tgt) ]
      end
      else [ mk E_jump (T_addr tgt) ]
  | Op.JALR -> (
      match Slice_lite.jalr_target body i with
      | Some tgt when in_code tgt ->
          classify_const_jalr ctx ~func ~bstart ~next i tgt
      | Some _ -> [ mk E_indirect T_unknown ] (* constant, but not code *)
      | None ->
          let is_return =
            i.Insn.rd = 0
            && (i.Insn.rs1 = Reg.ra
               ||
               (* the paper's generalized case: previous instruction is a
                  call whose link register is this jalr's target *)
               match List.rev body with
               | prev :: _ -> (
                   let p = prev.Instruction.insn in
                   match p.Insn.op with
                   | Op.JAL | Op.JALR -> p.Insn.rd = i.Insn.rs1 && p.Insn.rd <> 0
                   | _ -> false)
               | [] -> false)
          in
          if is_return then begin
            func.f_returns <- true;
            [ mk E_return T_unknown ]
          end
          else begin
            let guards = predecessor_bodies ctx bstart in
            match Jump_table.analyze ~symtab ~span ~guards body i with
            | Some jt ->
                Log.debug (fun m ->
                    m "jump table at 0x%Lx: %d targets" addr
                      (List.length jt.Jump_table.jt_targets));
                Hashtbl.replace ctx.cfg.jump_tables bstart jt;
                List.map
                  (fun t -> mk E_jump_table (T_addr t))
                  jt.Jump_table.jt_targets
            | None ->
                if i.Insn.rd <> 0 then
                  (* unresolved indirect call; calls are assumed to return *)
                  [ mk E_call T_unknown; mk E_call_ft here ]
                else [ mk E_indirect T_unknown ]
          end)
  | Op.ECALL | Op.EBREAK ->
      (* straight-line from the parser's point of view *)
      [ mk E_fallthrough here ]
  | _ -> [ mk E_fallthrough here ]

let is_terminator (ins : Instruction.t) =
  Op.is_control_flow (Instruction.op ins)

(* Split [b] at [addr] (an instruction boundary inside b).  The tail
   becomes a new block; [b] keeps the head and falls through.

   A jalr terminator must be *re-classified*: its original resolution may
   have used instructions that now belong to the head block, and the new
   mid-block entry invalidates that single-entry reasoning (the dataflow
   refinement pass re-resolves it flow-sensitively if possible). *)
let split_block ctx (b : block) (addr : int64) : block =
  let head, tail =
    List.partition
      (fun i -> Int64.compare i.Instruction.addr addr < 0)
      b.b_insns
  in
  assert (tail <> []);
  let b2 =
    {
      b_start = addr;
      b_end = b.b_end;
      b_insns = tail;
      b_out = List.map (fun e -> { e with e_src = addr }) b.b_out;
      b_in = [];
      b_func = b.b_func;
    }
  in
  unregister_block ctx b;
  b.b_end <- addr;
  b.b_insns <- head;
  b.b_out <- [ { ek = E_fallthrough; e_src = b.b_start; e_dst = T_addr addr } ];
  (* any recovered table belonged to the terminator, now in the tail;
     re-classification below re-registers it under the tail's start *)
  Hashtbl.remove ctx.cfg.jump_tables b.b_start;
  register_block ctx b;
  register_block ctx b2;
  (match func_at ctx.cfg b.b_func with
  | Some f ->
      f.f_blocks <- I64Set.add addr f.f_blocks;
      (match Cfg.last_insn b2 with
      | Some term when term.Instruction.insn.Insn.op = Op.JALR ->
          let body = List.filter (fun i -> i != term) b2.b_insns in
          b2.b_out <- classify_terminator ctx ~func:f ~bstart:addr ~body term
      | _ -> ())
  | None -> ());
  b2

(* Parse one basic block starting at [addr]. *)
let parse_block ctx (func : func) (addr : int64) : block option =
  let rec collect cur acc =
    (* a block ends when it reaches an existing block or a known function
       entry (code flowing onto a function boundary must not swallow the
       next function's body) *)
    if
      (Hashtbl.mem ctx.cfg.blocks cur || I64Set.mem cur ctx.known_entries)
      && acc <> []
    then `Flows_into (cur, List.rev acc)
    else
      match decode_at ctx cur with
      | None -> `Undecodable (cur, List.rev acc)
      | Some ins ->
          if is_terminator ins then `Terminated (List.rev acc, ins)
          else collect (Instruction.next_addr ins) (ins :: acc)
  in
  match collect addr [] with
  | `Flows_into (next_start, insns) ->
      let b =
        {
          b_start = addr;
          b_end = next_start;
          b_insns = insns;
          b_out =
            [ { ek = E_fallthrough; e_src = addr; e_dst = T_addr next_start } ];
          b_in = [];
          b_func = func.f_entry;
        }
      in
      register_block ctx b;
      Some b
  | `Undecodable (stop, insns) ->
      (* falls off into undecodable bytes: block ends with no out-edges *)
      if insns = [] then None
      else begin
        let b =
          {
            b_start = addr;
            b_end = stop;
            b_insns = insns;
            b_out = [];
            b_in = [];
            b_func = func.f_entry;
          }
        in
        register_block ctx b;
        Some b
      end
  | `Terminated (body, term) ->
      let b_end = Instruction.next_addr term in
      let b =
        {
          b_start = addr;
          b_end;
          b_insns = body @ [ term ];
          b_out = [];
          b_in = [];
          b_func = func.f_entry;
        }
      in
      register_block ctx b;
      b.b_out <- classify_terminator ctx ~func ~bstart:addr ~body term;
      Some b

let rec parse_function ctx entry =
  if Hashtbl.mem ctx.cfg.funcs entry then ()
  else begin
    let name =
      match Symtab.function_at ctx.cfg.symtab entry with
      | Some s when Int64.equal s.Elfkit.Types.sym_value entry ->
          s.Elfkit.Types.sym_name
      | _ -> Printf.sprintf "func_%Lx" entry
    in
    let func =
      {
        f_entry = entry;
        f_name = name;
        f_blocks = I64Set.empty;
        f_callees = I64Set.empty;
        f_returns = false;
        f_from_gap = false;
      }
    in
    Hashtbl.replace ctx.cfg.funcs entry func;
    let wl = Queue.create () in
    Queue.add entry wl;
    traverse ctx func wl
  end

(* Traversal worklist over one function: claims/splits/parses blocks and
   follows intraprocedural successors. *)
and traverse ctx (func : func) (wl : int64 Queue.t) =
  let entry = func.f_entry in
  begin
    while not (Queue.is_empty wl) do
      let addr = Queue.pop wl in
      if not (I64Set.mem addr func.f_blocks) then begin
        let b =
          match block_at ctx.cfg addr with
          | Some b -> Some b
          | None -> (
              match block_containing ctx addr with
              | Some existing ->
                  if
                    List.exists
                      (fun ins -> Int64.equal ins.Instruction.addr addr)
                      existing.b_insns
                  then Some (split_block ctx existing addr)
                  else
                    (* branch to a non-boundary address (overlapping
                       decode); parse an overlapping block — rare but
                       legal on a byte-addressed ISA *)
                    None
              | None -> parse_block ctx func addr)
        in
        match b with
        | None -> ()
        | Some b ->
            func.f_blocks <- I64Set.add b.b_start func.f_blocks;
            List.iter
              (fun succ ->
                (* do not traverse into another known function's entry:
                   falling through onto a function boundary does not make
                   its blocks part of this function *)
                if
                  (not (I64Set.mem succ func.f_blocks))
                  && not
                       (I64Set.mem succ ctx.known_entries
                       && not (Int64.equal succ entry))
                then Queue.add succ wl)
              (intra_succs b)
      end
    done
  end

(* gap parsing: prologue heuristic *)
let looks_like_prologue ctx addr =
  match decode_at ctx addr with
  | None -> false
  | Some ins -> (
      let i = ins.Instruction.insn in
      match i.Insn.op with
      | Op.ADDI ->
          i.Insn.rd = Reg.sp && i.Insn.rs1 = Reg.sp
          && Int64.compare i.Insn.imm 0L < 0
      | Op.SD | Op.SW ->
          i.Insn.rs1 = Reg.sp && (i.Insn.rs2 = Reg.ra || i.Insn.rs2 = Reg.s0)
      | _ -> false)

let gap_parse ctx =
  let candidates = ref [] in
  List.iter
    (fun (r : Symtab.region) ->
      let lo = r.Symtab.rg_addr in
      let hi = Int64.add lo (Int64.of_int r.Symtab.rg_size) in
      let gaps = Dyn_util.Interval_map.gaps ctx.block_map lo hi in
      List.iter
        (fun (glo, ghi) ->
          let cur = ref (Dyn_util.Bits.align_up glo 2) in
          let found = ref false in
          while (not !found) && Int64.compare (Int64.add !cur 4L) ghi <= 0 do
            if looks_like_prologue ctx !cur then begin
              found := true;
              Log.debug (fun m -> m "gap function candidate at 0x%Lx" !cur);
              candidates := !cur :: !candidates;
              add_entry ctx !cur
            end
            else cur := Int64.add !cur 2L
          done)
        gaps)
    (Symtab.code_regions ctx.cfg.symtab);
  !candidates

(* The dataflow refinement pass (paper §2.1: "Dyninst attempts to
   resolve these gaps using advanced dataflow analysis"): re-examine
   jalr terminators left unresolved by the block-local slice with
   flow-sensitive constant propagation; on success, reclassify and
   continue traversal. *)
let refine_indirects ctx : bool =
  let changed = ref false in
  List.iter
    (fun (f : func) ->
      let unresolved =
        Cfg.blocks_of ctx.cfg f
        |> List.filter (fun (b : block) ->
               match (Cfg.last_insn b, b.b_out) with
               | Some term, [ { ek = E_indirect; e_dst = T_unknown; _ } ] ->
                   term.Instruction.insn.Insn.op = Op.JALR
               | _ -> false)
      in
      if unresolved <> [] then begin
        let cp = Constprop.analyze ctx.cfg f in
        List.iter
          (fun (b : block) ->
            match Cfg.last_insn b with
            | Some term -> (
                let i = term.Instruction.insn in
                match
                  Constprop.value_before cp b term.Instruction.addr i.Insn.rs1
                with
                | Constprop.C base ->
                    let tgt =
                      Int64.logand (Int64.add base i.Insn.imm) (Int64.lognot 1L)
                    in
                    if Symtab.is_code_addr ctx.cfg.symtab tgt then begin
                      Log.debug (fun m ->
                          m "refined jalr at 0x%Lx -> 0x%Lx"
                            term.Instruction.addr tgt);
                      b.b_out <-
                        classify_const_jalr ctx ~func:f ~bstart:b.b_start
                          ~next:(Instruction.next_addr term) i tgt;
                      changed := true;
                      (* continue traversal from the new successors *)
                      let wl = Queue.create () in
                      List.iter
                        (fun succ ->
                          if not (I64Set.mem succ f.f_blocks) then
                            Queue.add succ wl)
                        (intra_succs b);
                      traverse ctx f wl
                    end
                | Constprop.Top -> ())
            | None -> ())
          unresolved
      end)
    (Cfg.functions ctx.cfg);
  !changed

(* Parse [symtab]'s binary.  Entry points: the ELF entry point and all
   function symbols; call targets discovered during traversal are added
   on the fly; with [gap_parsing] (default), uncovered byte ranges are
   scanned for prologues afterwards. *)
let parse ?(gap_parsing = true) (symtab : Symtab.t) : Cfg.t =
  let cfg = Cfg.create symtab in
  let ctx =
    {
      cfg;
      func_queue = Queue.create ();
      known_entries = I64Set.empty;
      entries_sorted = [||];
      block_map = Dyn_util.Interval_map.empty;
    }
  in
  let entry = Symtab.entry symtab in
  if not (Int64.equal entry 0L) then add_entry ctx entry;
  List.iter
    (fun (s : Elfkit.Types.symbol) ->
      if Symtab.is_code_addr symtab s.Elfkit.Types.sym_value then
        add_entry ctx s.Elfkit.Types.sym_value)
    (Symtab.functions symtab);
  let drain () =
    while not (Queue.is_empty ctx.func_queue) do
      parse_function ctx (Queue.pop ctx.func_queue)
    done
  in
  drain ();
  if gap_parsing then begin
    (* iterate: parsing a gap function may expose further gaps *)
    let rec go rounds =
      if rounds > 16 then ()
      else
        let found = gap_parse ctx in
        if found <> [] then begin
          drain ();
          List.iter
            (fun e ->
              match func_at cfg e with
              | Some f -> f.f_from_gap <- true
              | None -> ())
            found;
          go (rounds + 1)
        end
    in
    go 0
  end;
  (* dataflow refinement of unresolved indirect transfers *)
  let rec refine_rounds n =
    if n < 4 && refine_indirects ctx then begin
      drain ();
      refine_rounds (n + 1)
    end
  in
  refine_rounds 0;
  Cfg.freeze cfg
    ~entries:(Array.of_list (I64Set.elements ctx.known_entries));
  cfg
