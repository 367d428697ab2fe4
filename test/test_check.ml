(* rvcheck (the differential correctness harness) under test: the
   lockstep oracle over fuzzed instruction streams, the exhaustive
   compressed-decoder sweep, and the rewrite round-trip checker.  These
   are the same entry points `rvcheck` and `make fuzz-smoke` drive; the
   suite pins the zero-divergence property into the tier-1 tests with a
   smaller case count. *)

open Check_api

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- the PRNG: replayability is the whole point ----------------------------- *)

let test_prng_determinism () =
  let a = Prng.of_seed_index ~seed:7L ~index:123 in
  let b = Prng.of_seed_index ~seed:7L ~index:123 in
  let xs = List.init 16 (fun _ -> Prng.next a) in
  let ys = List.init 16 (fun _ -> Prng.next b) in
  checkb "same seed+index, same stream" true (xs = ys);
  let c = Prng.of_seed_index ~seed:7L ~index:124 in
  checkb "adjacent index, different stream" true
    (List.init 16 (fun _ -> Prng.next c) <> xs);
  (* bounds respected *)
  let d = Prng.of_seed_index ~seed:99L ~index:0 in
  for _ = 1 to 1000 do
    let v = Prng.int d 17 in
    checkb "int in bounds" true (v >= 0 && v < 17)
  done

let test_fuzz_determinism () =
  (* a case is a pure function of (seed, index): generating it twice
     gives byte-identical programs and register files *)
  for index = 0 to 50 do
    let a = Fuzz.case_of ~seed:3L ~index in
    let b = Fuzz.case_of ~seed:3L ~index in
    checkb "case replays exactly" true
      (a.Fuzz.c_insn = b.Fuzz.c_insn
      && Bytes.equal a.Fuzz.c_bytes b.Fuzz.c_bytes
      && a.Fuzz.c_regs = b.Fuzz.c_regs
      && a.Fuzz.c_pc = b.Fuzz.c_pc)
  done

(* --- the lockstep oracle ----------------------------------------------------- *)

let test_lockstep_sweep () =
  (* the tier-1 pin of the tentpole property: a few thousand fuzzed
     cases, zero divergences between rvsim and the Sail IR evaluator.
     `rvcheck lockstep` runs the same sweep at 10k+. *)
  let stats = Oracle.sweep ~seed:0x5EEDL ~count:3000 () in
  checki "all cases ran" 3000 stats.Oracle.s_total;
  (match stats.Oracle.s_divergences with
  | [] -> ()
  | r :: _ ->
      Alcotest.failf "divergence: %s (%s)"
        (Format.asprintf "%a" Oracle.pp_report r)
        (Oracle.reproducer r));
  checki "no divergences" 0 stats.Oracle.s_diverged;
  (* the generator is actually exercising the interesting corners *)
  checkb
    (Printf.sprintf "compressed cases present (%d)" stats.Oracle.s_compressed)
    true
    (stats.Oracle.s_compressed > 300);
  checkb
    (Printf.sprintf "opcode diversity (%d)" (List.length stats.Oracle.s_ops))
    true
    (List.length stats.Oracle.s_ops > 100);
  checkb "some agreed faults (both sides refuse)" true
    (stats.Oracle.s_agree_fault > 0)

let test_check_replay () =
  (* check ~seed ~index is deterministic and reports the decoded insn *)
  let r1 = Oracle.check ~seed:42L ~index:7 in
  let r2 = Oracle.check ~seed:42L ~index:7 in
  checkb "same outcome on replay" true (r1.Oracle.r_outcome = r2.Oracle.r_outcome);
  checkb "insn decoded" true (r1.Oracle.r_decoded <> None)

(* --- the exhaustive compressed-decoder sweep --------------------------------- *)

let test_decoder_sweep () =
  let accepted, violations = Decode_check.sweep () in
  List.iter
    (fun (v : Decode_check.violation) ->
      Printf.printf "decoder violation 0x%04x: %s\n" v.Decode_check.v_word
        v.Decode_check.v_msg)
    violations;
  checki "no violations" 0 (List.length violations);
  (* sanity on the sweep itself: a healthy fraction of the quadrant-0/1/2
     space decodes, and the reserved carve-outs keep it below total *)
  checkb
    (Printf.sprintf "plausible acceptance count (%d)" accepted)
    true
    (accepted > 40_000 && accepted < 49_152)

(* --- the rewrite round-trip -------------------------------------------------- *)

let test_roundtrip_transparent () =
  List.iter
    (fun name ->
      let r = Roundtrip.check_builtin name in
      (match r.Roundtrip.rt_diffs with
      | [] -> ()
      | d :: _ ->
          Alcotest.failf "%s not transparent: %s" r.Roundtrip.rt_name d);
      checkb
        (Printf.sprintf "%s instrumented some points" name)
        true
        (r.Roundtrip.rt_points > 0);
      checkb
        (Printf.sprintf "%s probe fired (%Ld)" name r.Roundtrip.rt_counter)
        true
        (Int64.compare r.Roundtrip.rt_counter 0L > 0))
    [ "fib"; "calls" ]

let test_roundtrip_trace () =
  List.iter
    (fun (name, mode, use_dead_regs) ->
      let r = Roundtrip.check_trace_builtin ~use_dead_regs ~mode name in
      (match r.Roundtrip.rt_diffs with
      | [] -> ()
      | d :: _ -> Alcotest.failf "%s: %s" r.Roundtrip.rt_name d);
      checkb
        (Printf.sprintf "%s delivered records (%Ld)" r.Roundtrip.rt_name r.Roundtrip.rt_counter)
        true
        (Int64.compare r.Roundtrip.rt_counter 0L > 0))
    [ ("fib", `Coverage, true); ("fib", `Mem, true); ("fib", `Mem, false);
      ("calls", `Coverage, true); ("calls", `Mem, true); ("matmul", `Mem, true) ]

let test_roundtrip_clock_note () =
  (* matmul reads the cycle CSR: its stdout legitimately observes the
     instrumentation overhead, which must land as a note, not a diff *)
  let r = Roundtrip.check_builtin "matmul" in
  checkb "matmul transparent modulo time" true (r.Roundtrip.rt_diffs = []);
  checkb "observed-time note recorded" true (r.Roundtrip.rt_notes <> [])

(* --- codegen differential ---------------------------------------------------- *)

let test_codegen_differential () =
  let s = Codegendiff.sweep ~seed:1L ~count:600 in
  (match s.Codegendiff.s_diverged with
  | [] -> ()
  | (index, msg) :: _ -> Alcotest.failf "seed 1 index %d: %s" index msg);
  checkb
    (Printf.sprintf "most cases run (%d agree, %d skipped)" s.Codegendiff.s_agreed
       s.Codegendiff.s_skipped)
    true
    (s.Codegendiff.s_agreed >= 500)

(* The reference evaluator itself: andi sign-extends, so x & 0xfff and
   x & 0x7ff differ for an x with bit 11 set above the mask. *)
let test_codegen_reference () =
  let open Codegen_api.Snippet in
  let check64 = Alcotest.(check int64) in
  check64 "x & 0xfff" 0xabcL (Codegendiff.binop BAnd 0x12abcL 0xfffL);
  check64 "shift by 64 is by 0" 5L (Codegendiff.binop Shl 5L 64L);
  check64 "div by zero" (-1L) (Codegendiff.binop Divide 7L 0L);
  check64 "rem by zero" 7L (Codegendiff.binop Mod 7L 0L);
  check64 "min / -1" Int64.min_int (Codegendiff.binop Divide Int64.min_int (-1L))

let () =
  Alcotest.run "check"
    [
      ( "fuzzer",
        [
          Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
          Alcotest.test_case "case determinism" `Quick test_fuzz_determinism;
        ] );
      ( "lockstep",
        [
          Alcotest.test_case "sweep: zero divergences" `Quick
            test_lockstep_sweep;
          Alcotest.test_case "replay determinism" `Quick test_check_replay;
        ] );
      ( "decoder",
        [ Alcotest.test_case "exhaustive halfword sweep" `Quick test_decoder_sweep ] );
      ( "roundtrip",
        [
          Alcotest.test_case "transparent mutatees" `Quick
            test_roundtrip_transparent;
          Alcotest.test_case "clock-reading mutatee" `Quick
            test_roundtrip_clock_note;
          Alcotest.test_case "trace records match the reference" `Quick
            test_roundtrip_trace;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "differential sweep" `Quick test_codegen_differential;
          Alcotest.test_case "reference semantics" `Quick test_codegen_reference;
        ] );
    ]
