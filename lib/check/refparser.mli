(** The sequential reference parser: the original single-threaded
    traversal parser, kept verbatim as the differential oracle and bench
    baseline for the domain-parallel engine in {!Parse_api.Parser}.

    [rvcheck parsediff] and the parse bench compare every parallel CFG
    against this parser's output and require zero {!Parse_api.Cfg_diff}
    differences; the bench speedup gate measures the engine against this
    baseline.  Do not optimize it. *)

val parse : ?gap_parsing:bool -> Symtab.t -> Parse_api.Cfg.t
