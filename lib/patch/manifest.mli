(** The patch manifest — a machine-readable record of a rewrite, emitted
    by {!Rewriter.plan} and checked against the rewritten binary by the
    lint verifier ([Lint_api.Verifier]): springboard targets, trampoline
    placement, and the registers each woven snippet may write (the §4.3
    dead-register claims). *)

type insertion = {
  mi_addr : int64;
      (** instruction the snippet runs before / branch of the edge *)
  mi_edge : bool;  (** taken-edge insertion *)
  mi_spilled : bool;  (** snippet borrowed registers (save/restore path) *)
  mi_clobbers : Riscv.Reg.t list;
      (** dead-allocated scratch, left modified at the point *)
  mi_code_defs : Riscv.Reg.t list;
      (** every register the woven code may write *)
}

type entry = {
  me_block : int64;
  me_block_end : int64;  (** exclusive *)
  me_func : int64;  (** entry of the owning function *)
  me_tramp : int64;  (** trampoline address the springboard targets *)
  me_strategy : string;  (** c.j / jal / auipc+jalr / trap *)
  me_sb_len : int;  (** springboard byte length *)
  me_sb_scratch : Riscv.Reg.t option;
      (** register an auipc+jalr springboard consumed *)
  me_insertions : insertion list;
}

type t = {
  m_tramp_base : int64;
  m_tramp_size : int;
  m_data_base : int64;
  m_data_size : int;
  m_traps : (int64 * int64) list;  (** trap springboard pc -> trampoline *)
  m_entries : entry list;  (** in block-address order *)
}

(** Registers an assembler item list may write once encoded (label
    pseudo-items are charged their relaxation scratch t1; [Call_l] also
    links through ra). *)
val defs_of_items : Riscv.Asm.item list -> Riscv.Reg.t list

val to_json : t -> Dyn_util.Jsonw.t
val of_json : Dyn_util.Jsonw.t -> t
val to_string : t -> string
val of_string : string -> t
val write_file : string -> t -> unit
val read_file : string -> t

(** Lookups over one manifest, built in O(n log n) by {!index} and
    answered in O(log n) or O(1). *)
type index

val index : t -> index

(** The entry whose block starts at an address (the first one listed,
    if several claim it). *)
val entry_for : index -> int64 -> entry option

(** The entry whose block strictly contains an address: past the
    block's start, before its end. *)
val entry_inside : index -> int64 -> entry option

(** End (exclusive) of the trampoline span an entry owns: the next
    higher trampoline address of any entry, capped at the end of the
    trampoline region. *)
val span_end : index -> entry -> int64
