(* rvcheck: the differential correctness harness as a tool.

     rvcheck lockstep --seed 1 --count 10000
         fuzz decodable-but-adversarial RV64GC instructions and diff the
         rvsim interpreter against the mini-SAIL semantics after every
         step; any divergence prints a one-line reproducer
     rvcheck replay --seed N --index K
         re-run exactly one fuzzed case, verbosely
     rvcheck decoder
         exhaustive 16-bit sweep of the RVC decoder (reserved encodings,
         expansion and re-compression round trips)
     rvcheck roundtrip [--mutatee all|fib|...]
         instrument a mutatee with an effect-free probe, rewrite, and
         compare the visible state of original vs rewritten runs
     rvcheck engine --seeds 50
         run the same mutatees under the per-instruction interpreter and
         the superblock engine and diff final registers, memory, cycles,
         instret, HPM counters and timer firing points
     rvcheck parsediff --seeds 20
         parse the same mutatees with the domain-parallel engine at
         1/2/4/8 domains and diff the CFGs structurally: minicc builtins
         against the frozen sequential reference parser, seeded
         adversarial instruction streams against the engine's own
         single-domain parse — any difference is a determinism bug
     rvcheck smoke
         the bounded fixed-seed sweep `make fuzz-smoke` runs in CI      *)

open Cmdliner
open Check_api

let pr fmt = Format.printf fmt

let report_divergences (stats : Oracle.stats) =
  List.iter
    (fun r ->
      pr "@.%a" Oracle.pp_report r;
      pr "reproduce: %s@." (Oracle.reproducer r))
    stats.Oracle.s_divergences;
  if stats.Oracle.s_diverged > List.length stats.Oracle.s_divergences then
    pr "... and %d more divergences@."
      (stats.Oracle.s_diverged - List.length stats.Oracle.s_divergences)

let run_lockstep seed count verbose =
  let stats = Oracle.sweep ~seed ~count () in
  pr "lockstep sweep: seed=%Ld count=%d@." seed count;
  pr "  agree        %d@." stats.Oracle.s_agree;
  pr "  agree-fault  %d@." stats.Oracle.s_agree_fault;
  pr "  diverged     %d@." stats.Oracle.s_diverged;
  pr "  compressed   %d (%.1f%%)@." stats.Oracle.s_compressed
    (100.0 *. float_of_int stats.Oracle.s_compressed /. float_of_int count);
  pr "  opcodes hit  %d@." (List.length stats.Oracle.s_ops);
  if verbose then
    List.iter
      (fun (op, n) -> pr "    %-12s %d@." (Riscv.Op.mnemonic op) n)
      stats.Oracle.s_ops;
  report_divergences stats;
  if stats.Oracle.s_diverged > 0 then 1 else 0

let run_replay seed index =
  let r = Oracle.replay Format.std_formatter ~seed ~index in
  match r.Oracle.r_outcome with Oracle.Diverged _ -> 1 | _ -> 0

let run_decoder () =
  let accepted, violations = Decode_check.sweep () in
  pr "decoder sweep: %d of 49152 halfwords decode@." accepted;
  List.iter
    (fun (v : Decode_check.violation) ->
      pr "  0x%04x: %s@." v.Decode_check.v_word v.Decode_check.v_msg)
    violations;
  if violations = [] then begin
    pr "  reserved encodings rejected, expansions and re-compressions closed@.";
    0
  end
  else 1

let run_roundtrip mutatees =
  let names =
    match mutatees with
    | [] | [ "all" ] -> Roundtrip.builtin_names
    | ms -> ms
  in
  let bad = List.filter (fun n -> not (List.mem n Roundtrip.builtin_names)) names in
  if bad <> [] then begin
    Printf.eprintf "rvcheck: unknown mutatee(s) %s (expected %s)\n"
      (String.concat ", " bad)
      (String.concat ", " Roundtrip.builtin_names);
    exit 2
  end;
  let results =
    List.concat_map
      (fun n ->
        [
          Roundtrip.check_builtin n;
          Roundtrip.check_trace_builtin ~mode:`Coverage n;
          Roundtrip.check_trace_builtin ~mode:`Mem n;
          Roundtrip.check_trace_builtin ~use_dead_regs:false ~mode:`Mem n;
        ])
      names
  in
  List.iter (fun r -> pr "%a" Roundtrip.pp_result r) results;
  if List.exists (fun r -> r.Roundtrip.rt_diffs <> []) results then 1 else 0

let run_engine mutatees seeds len verbose =
  let mutatees =
    match mutatees with [] | [ "all" ] -> Roundtrip.builtin_names | ms -> ms
  in
  let s = Enginediff.sweep ~mutatees ~seeds ~len () in
  if verbose then
    List.iter
      (fun name ->
        List.iter
          (fun obs -> pr "%a" Enginediff.pp_result (Enginediff.check_builtin name obs))
          Enginediff.all_obs)
      mutatees;
  pr "%a" Enginediff.pp_summary s;
  if s.Enginediff.s_diverged = 0 then 0 else 1

let run_parsediff mutatees seeds verbose =
  let mutatees =
    match mutatees with [] | [ "all" ] -> Parsediff.builtin_names | ms -> ms
  in
  let bad =
    List.filter (fun n -> not (List.mem n Parsediff.builtin_names)) mutatees
  in
  if bad <> [] then begin
    Printf.eprintf "rvcheck: unknown mutatee(s) %s (expected %s)\n"
      (String.concat ", " bad)
      (String.concat ", " Parsediff.builtin_names);
    exit 2
  end;
  let s = Parsediff.sweep ~mutatees ~seeds () in
  if verbose then
    List.iter
      (fun name ->
        List.iter
          (fun r -> pr "%a" Parsediff.pp_result r)
          (Parsediff.check_builtin name))
      mutatees;
  pr "%a" Parsediff.pp_summary s;
  if s.Parsediff.s_diverged = 0 then 0 else 1

(* The CI profile: fixed seed, bounded, sub-second; covers all six
   harness legs so `make fuzz-smoke` exercises everything — including
   the parallel-parser CFG-identity gate and the codegen differential. *)
let run_smoke () =
  let rc1 = run_lockstep 1L 4000 false in
  let rc2 = run_decoder () in
  let rc3 = run_roundtrip [ "fib"; "calls" ] in
  let rc4 = run_engine [ "fib"; "calls" ] 10 40 false in
  let rc5 = run_parsediff [ "all" ] 5 false in
  let rc6 =
    let s = Codegendiff.sweep ~seed:1L ~count:600 in
    pr "%a" (Codegendiff.pp_summary ~seed:1L) s;
    if s.Codegendiff.s_diverged = [] then 0 else 1
  in
  if rc1 + rc2 + rc3 + rc4 + rc5 + rc6 = 0 then begin
    pr "fuzz-smoke: ok@.";
    0
  end
  else 1

let seed_arg =
  Arg.(
    value & opt int64 1L
    & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed for the instruction stream")

let count_arg =
  Arg.(
    value & opt int 10000
    & info [ "count" ] ~docv:"K" ~doc:"number of fuzzed instructions")

let index_arg =
  Arg.(
    required
    & opt (some int) None
    & info [ "index" ] ~docv:"K" ~doc:"case index within the seed's stream")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"per-opcode coverage table")

let mutatee_arg =
  Arg.(
    value
    & opt (list string) []
    & info [ "mutatee" ] ~docv:"M,.."
        ~doc:"built-in mutatees to round-trip (default: all)")

let lockstep_cmd =
  Cmd.v
    (Cmd.info "lockstep" ~doc:"fuzzed rvsim vs Sail-IR differential sweep")
    Term.(const run_lockstep $ seed_arg $ count_arg $ verbose_arg)

let replay_cmd =
  Cmd.v
    (Cmd.info "replay" ~doc:"replay one fuzzed case verbosely")
    Term.(const run_replay $ seed_arg $ index_arg)

let decoder_cmd =
  Cmd.v
    (Cmd.info "decoder" ~doc:"exhaustive RVC decoder audit")
    Term.(const run_decoder $ const ())

let roundtrip_cmd =
  Cmd.v
    (Cmd.info "roundtrip" ~doc:"rewrite round-trip transparency check")
    Term.(const run_roundtrip $ mutatee_arg)

let seeds_arg =
  Arg.(
    value & opt int 25
    & info [ "seeds" ] ~docv:"N" ~doc:"seeded straight-line programs to diff")

let len_arg =
  Arg.(
    value & opt int 40
    & info [ "len" ] ~docv:"K" ~doc:"instructions per straight-line program")

let engine_cmd =
  Cmd.v
    (Cmd.info "engine" ~doc:"superblock engine vs interpreter differential")
    Term.(const run_engine $ mutatee_arg $ seeds_arg $ len_arg $ verbose_arg)

let parsediff_seeds_arg =
  Arg.(
    value & opt int 20
    & info [ "seeds" ] ~docv:"N" ~doc:"seeded adversarial mutatees to parse")

let parsediff_cmd =
  Cmd.v
    (Cmd.info "parsediff"
       ~doc:"parallel parser vs sequential reference CFG differential")
    Term.(const run_parsediff $ mutatee_arg $ parsediff_seeds_arg $ verbose_arg)

let smoke_cmd =
  Cmd.v
    (Cmd.info "smoke" ~doc:"bounded fixed-seed sweep for CI")
    Term.(const run_smoke $ const ())

let cmd =
  Cmd.group
    (Cmd.info "rvcheck"
       ~doc:"differential correctness harness (rvsim vs Sail IR, rewrite round trip)")
    [
      lockstep_cmd;
      replay_cmd;
      decoder_cmd;
      roundtrip_cmd;
      engine_cmd;
      parsediff_cmd;
      smoke_cmd;
    ]

let () = exit (Cmd.eval' cmd)
