(** Machine-independent instrumentation snippets (paper §2): the abstract
    syntax trees that describe code to insert.  CodeGenAPI lowers them to
    native instructions; because snippets are ISA-independent, tools
    written against them port across architectures unchanged. *)

(** An instrumentation variable living in the patch data area.
    Create these with [Rewriter.allocate_var] / [Core.create_counter]. *)
type var = {
  v_name : string;  (** diagnostic name *)
  v_addr : int64;  (** absolute address in the data area *)
  v_size : int;  (** 1, 2, 4 or 8 bytes *)
}

(** Binary operators: arithmetic, bitwise and comparisons (comparisons
    yield 0/1). *)
type binop =
  | Plus | Minus | Times | Divide | Mod
  | BAnd | BOr | BXor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge

(** A snippet-local name, bound by [Let]. *)
type local = string

(** Expressions: constants, variable/register/memory reads, the mutatee's
    integer arguments (valid at function entry), operators and locals.
    Operators have RV64 semantics: [Divide]/[Mod] are signed (x/0 = -1,
    x mod 0 = x), [Shr] is logical, shift amounts are taken mod 64,
    comparisons are signed and yield 0/1, [Load] zero-extends. *)
type expr =
  | Const of int64
  | Var of var  (** read an instrumentation variable *)
  | Reg of Riscv.Reg.t  (** read a mutatee register *)
  | Param of int  (** nth integer argument, function-entry points only *)
  | Load of int * expr  (** [Load (bytes, address)] *)
  | Bin of binop * expr * expr
  | Not of expr
  | Cycle
      (** the hart's cycle CSR — TraceAPI's timestamp source (requires
          the Zicsr extension) *)
  | Local of local  (** the value of the innermost enclosing [Let] *)

(** Statements: assignment, stores, control flow and mutatee calls. *)
type stmt =
  | Set of var * expr
  | Store of int * expr * expr  (** [Store (bytes, address, value)] *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Call of int64 * expr list
      (** call a mutatee function by address; caller-saved state is
          preserved around the call *)
  | Scall of int * expr list
      (** [Scall (number, args)]: raise syscall [number] with up to six
          arguments.  The a-registers the syscall touches (arguments,
          a7, and the a0 return) are saved and restored, so the mutatee
          never observes the call — TraceAPI's ring-buffer flush path *)
  | Let of local * expr * stmt list
      (** [Let (l, e, body)]: evaluate [e] once and hold it in a scratch
          register while [body] runs; [Local l] reads it there *)
  | Nop

(** [incr v] is the classic counter snippet, [v := v + 1]: the
    variable's page base is bound once for the load and the store. *)
val incr : var -> stmt

(** [near_base a] is [(b, off)] with [b + off = a], [b]'s low 12 bits
    clear (one lui) and [off] a 12-bit signed offset. *)
val near_base : int64 -> int64 * int64

(** Mutatee registers a snippet reads explicitly (these are excluded from
    scratch-register allocation). *)
val reads : stmt list -> Riscv.Reg.t list

(** Scratch registers CodeGenAPI's lowering of the snippet writes —
    exactly, since both share the instruction-selection shape below.
    PatchAPI provides this many, from dead registers when liveness
    allows, else by spilling.  (A [Call]/[Scall] with several arguments
    also keeps already-loaded argument registers out of later argument
    evaluation, so scratch drawn from a0-a7 may fall short there; the
    lowering then fails rather than clobber an argument.) *)
val regs_needed : stmt list -> int

(** [shift_sp k stmts] is the snippet as seen from a stack pointer [k]
    bytes below the mutatee's: every read of sp becomes [sp + k].
    PatchAPI applies it when it pushes a spill frame around a snippet. *)
val shift_sp : int64 -> stmt list -> stmt list

(** Effects a snippet has beyond its stores: reading the cycle CSR and
    raising syscalls.  PatchAPI declares them in the manifest so the
    symbolic verifier excuses exactly these. *)
type effect = Reads_cycle | Raises of int

val effects : stmt list -> effect list

(** Does the snippet contain a [Call]? *)
val has_call : stmt list -> bool

(** {2 Instruction-selection shape}

    Shared by {!Codegen} and {!regs_needed}. *)

val fits_imm12 : int64 -> bool

(** Operands read in place, needing no scratch register: [Local],
    [Param], integer [Reg], [Const 0L]. *)
val in_place : expr -> bool

(** [canon op a b] moves a constant left operand of a commutative
    operator to the right. *)
val canon : binop -> expr -> expr -> expr * expr

(** The immediate a [Bin (op, _, b)] lowers with, if [b] is a constant
    that has an immediate form ([Minus]/[Eq]/[Ne] use [-c], [Le]/[Gt]
    use [c+1]). *)
val imm_form : binop -> expr -> int64 option

(** A memory operand: absolute, or base expression + folded offset. *)
type address = Abs of int64 | Based of expr * int

val address : expr -> address

(** Scratch registers an address's base holds (0 or 1). *)
val addr_own : address -> int
val is_compare : binop -> bool
val expr_regs_needed : expr -> int

(** Evaluate the left operand first? *)
val a_first : expr -> expr -> bool

(** Evaluate a store's address before its value? *)
val store_addr_first : address -> expr -> bool
