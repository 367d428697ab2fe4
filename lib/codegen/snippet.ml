(* Machine-independent instrumentation snippets (paper §2: "a snippet is
   an abstract representation of the code to be inserted ... specified by
   a machine independent abstract syntax tree").

   The AST mirrors Dyninst's BPatch_snippet vocabulary: variables,
   constants, arithmetic/logical operations, memory and register access,
   conditionals, and function calls — plus a snippet-local binding, so a
   value computed once (a base address, a loaded index) is held in a
   scratch register instead of being recomputed at every use. *)

type var = {
  v_name : string;
  v_addr : int64; (* address in the instrumentation data area *)
  v_size : int; (* 1, 2, 4 or 8 bytes *)
}

type binop =
  | Plus | Minus | Times | Divide | Mod
  | BAnd | BOr | BXor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge

type local = string

type expr =
  | Const of int64
  | Var of var (* read an instrumentation variable *)
  | Reg of Riscv.Reg.t (* read a mutatee register *)
  | Param of int (* nth integer argument (valid at function entry) *)
  | Load of int * expr (* width bytes, address *)
  | Bin of binop * expr * expr
  | Not of expr
  | Cycle (* the cycle CSR: a timestamp for trace records *)
  | Local of local (* a value bound by an enclosing [Let] *)

type stmt =
  | Set of var * expr
  | Store of int * expr * expr (* width bytes, address, value *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Call of int64 * expr list (* call a function in the mutatee *)
  | Scall of int * expr list (* raise a syscall; a-registers preserved *)
  | Let of local * expr * stmt list (* bind a value for the body *)
  | Nop

(* A 32-bit-reachable base near [addr] (its low 12 bits rounded away, so
   a single lui materializes it) and the 12-bit offset back to [addr]. *)
let near_base addr =
  let base = Int64.logand (Int64.add addr 0x800L) (Int64.lognot 0xFFFL) in
  (base, Int64.sub addr base)

(* The classic counter snippet, var++: the variable's page base is bound
   once and serves both the load and the store (lui; ld; addi; sd). *)
let incr v =
  let base, off = near_base v.v_addr in
  let at = Bin (Plus, Local "counter", Const off) in
  Let
    ( "counter",
      Const base,
      [ Store (v.v_size, at, Bin (Plus, Load (v.v_size, at), Const 1L)) ] )

(* Registers a snippet reads explicitly (they must not be chosen as
   scratch). *)
let rec expr_reads = function
  | Const _ | Var _ | Cycle | Local _ -> []
  | Reg r -> [ r ]
  | Param n -> [ Riscv.Reg.a0 + n ]
  | Load (_, e) | Not e -> expr_reads e
  | Bin (_, a, b) -> expr_reads a @ expr_reads b

let rec stmt_reads = function
  | Set (_, e) -> expr_reads e
  | Store (_, a, v) -> expr_reads a @ expr_reads v
  | If (c, a, b) ->
      expr_reads c @ List.concat_map stmt_reads a @ List.concat_map stmt_reads b
  | While (c, body) -> expr_reads c @ List.concat_map stmt_reads body
  | Call (_, args) | Scall (_, args) -> List.concat_map expr_reads args
  | Let (_, e, body) -> expr_reads e @ List.concat_map stmt_reads body
  | Nop -> []

let reads stmts = List.sort_uniq compare (List.concat_map stmt_reads stmts)

(* The snippet as seen from a stack pointer [k] bytes below the
   mutatee's (PatchAPI's spill frame): every read of sp is rebased. *)
let shift_sp k stmts =
  let sp = Riscv.Reg.sp in
  let rec ex = function
    | Reg r when r = sp -> Bin (Plus, Reg r, Const k)
    | Bin (Plus, Reg r, Const c) when r = sp -> Bin (Plus, Reg r, Const (Int64.add c k))
    | Bin (op, a, b) -> Bin (op, ex a, ex b)
    | Load (w, e) -> Load (w, ex e)
    | Not e -> Not (ex e)
    | (Const _ | Var _ | Reg _ | Param _ | Cycle | Local _) as e -> e
  and st = function
    | Set (v, e) -> Set (v, ex e)
    | Store (w, a, v) -> Store (w, ex a, ex v)
    | If (c, a, b) -> If (ex c, List.map st a, List.map st b)
    | While (c, b) -> While (ex c, List.map st b)
    | Call (f, args) -> Call (f, List.map ex args)
    | Scall (n, args) -> Scall (n, List.map ex args)
    | Let (l, e, b) -> Let (l, ex e, List.map st b)
    | Nop -> Nop
  in
  List.map st stmts

(* --- instruction-selection shape ---------------------------------------

   The decisions below are shared by CodeGenAPI's lowering and by
   [regs_needed], so the register count is exact by construction. *)

let fits_imm12 c = Int64.compare c (-2048L) >= 0 && Int64.compare c 2047L <= 0

(* Operands read where they already live, with no scratch register: a
   bound local, a mutatee integer register or argument, and zero. *)
let in_place = function
  | Local _ | Param _ | Const 0L -> true
  | Reg r -> Riscv.Reg.is_int r
  | _ -> false

let own e = if in_place e then 0 else 1

let commutes = function
  | Plus | Times | BAnd | BOr | BXor | Eq | Ne -> true
  | Minus | Divide | Mod | Shl | Shr | Lt | Le | Gt | Ge -> false

(* Constants go right of commutative operators, where immediate forms
   can take them. *)
let canon op a b =
  match (a, b) with
  | Const _, Const _ -> (a, b)
  | Const _, _ when commutes op -> (b, a)
  | _ -> (a, b)

(* The immediate [Bin (op, _, Const c)] lowers to, if any: addi, andi,
   ori, xori and slti take a 12-bit signed immediate (andi sign-extends
   it, so [x land 0xfff] is not one), shifts take 0..63; Minus, Eq, Ne,
   Le, Gt and Ge are rewritten onto those. *)
let imm_operand op c =
  let fits c = if fits_imm12 c then Some c else None in
  match op with
  | Plus | BAnd | BOr | BXor | Lt | Ge -> fits c
  | Minus | Eq | Ne -> if Int64.equal c Int64.min_int then None else fits (Int64.neg c)
  | Le | Gt -> if Int64.equal c Int64.max_int then None else fits (Int64.succ c)
  | Shl | Shr -> if Int64.compare c 0L >= 0 && Int64.compare c 63L <= 0 then Some c else None
  | Times | Divide | Mod -> None

let imm_form op = function Const c -> imm_operand op c | _ -> None

(* Memory operands: an absolute address, or a base expression plus a
   12-bit offset folded into the access. *)
type address = Abs of int64 | Based of expr * int

let rec address = function
  | Const c -> Abs c
  | Bin (Plus, a, Const k) | Bin (Plus, Const k, a) -> shift (address a) k
  | Bin (Minus, a, Const k) when not (Int64.equal k Int64.min_int) ->
      shift (address a) (Int64.neg k)
  | e -> Based (e, 0)

and shift addr k =
  match addr with
  | Abs c -> Abs (Int64.add c k)
  | Based (b, off) ->
      let off' = Int64.add (Int64.of_int off) k in
      if fits_imm12 off' then Based (b, Int64.to_int off')
      else Based (Bin (Plus, b, Const k), off)

(* An absolute address within 12 bits of zero needs no register. *)
let addr_own = function
  | Abs c -> if fits_imm12 c then 0 else 1
  | Based (b, _) -> own b

let rec expr_regs_needed e =
  if in_place e then 0
  else
    match e with
    | Const _ | Cycle | Reg _ | Param _ | Local _ | Var _ -> 1
    | Load (_, a) -> max 1 (addr_regs (address a))
    | Not e -> max 1 (expr_regs_needed e)
    | Bin (op, a, b) -> (
        let a, b = canon op a b in
        match imm_form op b with
        | Some _ -> max 1 (expr_regs_needed a)
        | None -> max 1 (pair_regs a b))

and addr_regs = function
  | Abs _ as a -> addr_own a
  | Based (b, _) -> expr_regs_needed b

and pair_regs a b = fst (pair (expr_regs_needed a, own a) (expr_regs_needed b, own b))

(* Two values live at once, each as (registers to evaluate, registers
   held after): the first-evaluated one holds its register while the
   second evaluates.  Returns the registers the cheaper order needs and
   whether that is the given order (kept on a tie). *)
and pair (na, oa) (nb, ob) =
  let ab = max na (oa + nb) and ba = max nb (ob + na) in
  (min ab ba, ab <= ba)

let a_first a b = snd (pair (expr_regs_needed a, own a) (expr_regs_needed b, own b))
let store_pair addr v = pair (addr_regs addr, addr_own addr) (expr_regs_needed v, own v)
let store_regs addr v = fst (store_pair addr v)
let store_addr_first addr v = snd (store_pair addr v)

(* A condition the lowering turns into one compare-and-branch. *)
let is_compare = function Eq | Ne | Lt | Ge | Gt | Le -> true | _ -> false

let cond_regs = function
  | Bin (op, a, b) when is_compare op -> pair_regs a b
  | c -> expr_regs_needed c

(* Call/Scall arguments that are in place move (or reload) straight
   into their argument register. *)
let args_regs args =
  List.fold_left
    (fun acc a -> max acc (if in_place a then 0 else expr_regs_needed a))
    0 args

let rec stmt_regs_needed = function
  | Set (v, e) -> store_regs (Abs v.v_addr) e
  | Store (_, a, v) -> store_regs (address a) v
  | If (c, a, b) -> max (cond_regs c) (max (stmts_regs a) (stmts_regs b))
  | While (c, body) -> max (cond_regs c) (stmts_regs body)
  | Call (_, args) -> max 1 (args_regs args) (* + the target address *)
  | Scall (_, args) -> args_regs args
  | Let (_, e, body) -> max (max 1 (expr_regs_needed e)) (1 + stmts_regs body)
  | Nop -> 0

and stmts_regs stmts = List.fold_left (fun acc s -> max acc (stmt_regs_needed s)) 0 stmts

let regs_needed = stmts_regs

(* The snippet's own observable effects beyond data-area stores: cycle
   CSR reads and raised syscalls, in first-occurrence order. *)
type effect = Reads_cycle | Raises of int

let effects stmts =
  let acc = ref [] in
  let add x = if not (List.mem x !acc) then acc := x :: !acc in
  let rec ex = function
    | Cycle -> add Reads_cycle
    | Const _ | Var _ | Reg _ | Param _ | Local _ -> ()
    | Load (_, e) | Not e -> ex e
    | Bin (_, a, b) ->
        ex a;
        ex b
  and st = function
    | Set (_, e) -> ex e
    | Store (_, a, v) ->
        ex a;
        ex v
    | If (c, a, b) ->
        ex c;
        List.iter st a;
        List.iter st b
    | While (c, b) ->
        ex c;
        List.iter st b
    | Call (_, args) -> List.iter ex args
    | Scall (n, args) ->
        List.iter ex args;
        add (Raises n)
    | Let (_, e, b) ->
        ex e;
        List.iter st b
    | Nop -> ()
  in
  List.iter st stmts;
  List.rev !acc

let rec contains_call = function
  | Call _ -> true
  | If (_, a, b) -> List.exists contains_call (a @ b)
  | While (_, body) | Let (_, _, body) -> List.exists contains_call body
  (* Scall saves and restores every register it clobbers itself, so it
     does not force the full caller-saved treatment a Call does. *)
  | Set _ | Store _ | Scall _ | Nop -> false

let has_call stmts = List.exists contains_call stmts
