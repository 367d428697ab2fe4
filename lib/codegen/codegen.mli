(** CodeGenAPI (paper §2.2, §3.2.5): lower machine-independent snippet
    ASTs to RV64GC instruction sequences.

    Extension awareness (§3.1.1): the target profile — discovered by
    SymtabAPI from the mutatee — is consulted before emitting any
    instruction from an optional extension; a [Divide] snippet against a
    profile without M raises {!Codegen_error} instead of planting an
    illegal instruction.  Immediate materialization uses the
    lui/addi/slli expansions the paper describes, with the low 12 bits of
    constant addresses folded into access offsets when possible.

    Instruction selection follows the shape in {!Snippet}: in-place
    operands (locals, mutatee registers, zero) need no [mv]; constants
    that fit take immediate forms (addi/andi/ori/xori/slli/srli/slti);
    [e + k] folds into load/store offsets; [If]/[While] on a comparison
    is one compare-and-branch, with no jump for an empty else; [Let]
    holds its value in a scratch register for its body.  The code
    writes exactly [Snippet.regs_needed] scratch registers. *)

exception Codegen_error of string

type ctx = {
  profile : Riscv.Ext.profile;
  scratch : Riscv.Reg.t list;
      (** integer registers the snippet may clobber — dead registers when
          liveness permits, else borrowed+spilled by PatchAPI *)
  mutable label_counter : int;
  label_prefix : string;
}

(** @raise Codegen_error if a scratch register is not an allocatable
    integer register. *)
val create_ctx :
  ?label_prefix:string ->
  profile:Riscv.Ext.profile ->
  scratch:Riscv.Reg.t list ->
  unit ->
  ctx

(** Generate assembler items for a snippet.
    @raise Codegen_error when the snippet needs an absent extension or
    more scratch registers than [ctx] provides. *)
val generate : ctx -> Snippet.stmt list -> Riscv.Asm.item list

(**/**)

val materialize_addr : Riscv.Reg.t -> int64 -> Riscv.Asm.item list * Riscv.Reg.t * int
val fresh_label : ctx -> string -> string
val require : ctx -> Riscv.Ext.t -> string -> unit
