(* The tool session: ELF bytes to a rewritten image that passed the
   structural and symbolic checks, one toolkit call per step.

     elf.read -> symtab.build -> parse.cfg    (what Core.open_bytes does)
     -> lint.lint -> dataflow.liveness (every function)
     -> patch.points (Core.create_mutator/at_*/insert)
     -> patch.rewrite (Core.rewrite)
     -> lint.verify (Lint_api.Verifier.verify)
     -> verify.symbolic (Verify_api.Check.check_manifest) *)

open Parse_api

type points =
  | Every_block  (** one bb-count counter at every block of every function *)
  | Entries of string list  (** one entry counter per named function *)

type config = { domains : int; points : points }

(* Deterministic facts about one session: every session of a run must
   agree on them. *)
type counts = {
  functions : int;
  blocks : int;
  insns : int;
  points : int;
  dead_alloc : int;
  spilled : int;
  traps : int;
  tramp_bytes : int;
  lint_errors : int;
  verify_errors : int;
  sites : int;
  proved : int;
}

type outcome = {
  rewritten : Elfkit.Types.image;
  binary : Core.binary;
  counter : Codegen_api.Snippet.var;
  counts : counts;
}

let count_insns cfg fns =
  List.fold_left
    (fun a f ->
      List.fold_left
        (fun a (b : Cfg.block) -> a + List.length b.Cfg.b_insns)
        a (Cfg.blocks_of cfg f))
    0 fns

let run (cfg_ : config) (elf : Bytes.t) : outcome =
  let img = Layer.call "elf.read" (fun () -> Elfkit.Read.read elf) in
  let symtab = Layer.call "symtab.build" (fun () -> Symtab.of_image img) in
  let cfg =
    Layer.call "parse.cfg" (fun () -> Parser.parse ~domains:cfg_.domains symtab)
  in
  let binary = { Core.symtab; cfg } in
  let fns = Core.functions binary in
  let lint = Layer.call "lint.lint" (fun () -> Lint_api.Linter.lint symtab cfg) in
  Layer.call "dataflow.liveness" (fun () ->
      List.iter (fun f -> ignore (Dataflow_api.Liveness.analyze cfg f)) fns);
  let m, counter =
    Layer.call "patch.points" (fun () ->
        let m = Core.create_mutator binary in
        let c = Core.create_counter m "perfbench_count" in
        let incr = [ Codegen_api.Snippet.incr c ] in
        (match cfg_.points with
        | Every_block ->
            List.iter
              (fun f ->
                List.iter
                  (fun pt -> Core.insert m pt incr)
                  (Patch_api.Point.block_entries cfg f))
              fns
        | Entries names ->
            List.iter (fun n -> Core.insert m (Core.at_entry binary n) incr) names);
        (m, c))
  in
  let rewritten = Layer.call "patch.rewrite" (fun () -> Core.rewrite m) in
  let manifest = Option.get (Core.manifest m) in
  let diags =
    Layer.call "lint.verify" (fun () ->
        Lint_api.Verifier.verify ~orig:symtab cfg ~manifest ~rewritten)
  in
  let report =
    Layer.call "verify.symbolic" (fun () ->
        Verify_api.Check.check_manifest ~orig:symtab cfg ~manifest ~rewritten)
  in
  let st = Core.stats m in
  let counts =
    {
      functions = List.length fns;
      blocks = List.fold_left (fun a f -> a + List.length (Cfg.blocks_of cfg f)) 0 fns;
      insns = count_insns cfg fns;
      points = st.Patch_api.Rewriter.n_points;
      dead_alloc = st.Patch_api.Rewriter.n_dead_alloc;
      spilled = st.Patch_api.Rewriter.n_spilled;
      traps = Patch_api.Rewriter.n_traps st;
      tramp_bytes = Sim.tramp_bytes rewritten;
      lint_errors = Lint_api.Diag.n_errors lint;
      verify_errors = Lint_api.Diag.n_errors diags;
      sites = List.length report.Verify_api.Check.r_sites;
      proved = report.Verify_api.Check.r_ok;
    }
  in
  { rewritten; binary; counter; counts }

(* What the checks keep of a session: the rewritten image's hash and
   the counts, without the images themselves. *)
let digest (o : outcome) =
  (Dyn_util.Sha256.hex_of_bytes (Elfkit.Write.to_bytes o.rewritten), o.counts)

