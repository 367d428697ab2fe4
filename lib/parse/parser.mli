(** Domain-parallel traversal parsing (ParseAPI's parser; paper §2.1,
    §3.2.3, and §2's "fast parallel algorithm").

    Per-function CFG construction is a pure task over a shared read-only
    image: each round parses every known entry into a function-local
    partial CFG across [domains] worker domains (one shared task
    cursor: each worker claims the round's next task until none is
    left), merges the partials deterministically in ascending entry
    order, and feeds discovered callee entries back as the next round,
    until fixpoint.  Gap parsing and the dataflow refinement pass then run
    over the merged whole, reusing the same round machinery for their
    discoveries.  Classification decisions are identical to the
    sequential reference ([Check_api.Refparser]); [rvcheck parsediff]
    enforces CFG equality.

    The result is frozen ({!Cfg.freeze}) before being returned. *)

(** The fan-out width [parse ~domains] runs at on this host: [domains]
    clamped to [1 .. Domain.recommended_domain_count ()], since extra
    workers cannot change the CFG but do add stop-the-world GC
    synchronizations. *)
val workers : int -> int

(** Parse a binary into a CFG.

    @param gap_parsing scan coverage gaps for prologues (default true)
    @param domains task fan-out width, run at [workers domains] (default
    1 = the same task/merge code path on the calling domain); the CFG is
    identical for every value *)
val parse : ?gap_parsing:bool -> ?domains:int -> Symtab.t -> Cfg.t
