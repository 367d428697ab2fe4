# Tier-1 verification in one command: `make check`.
#
#   build        compile everything (libraries, tools, examples, tests)
#   test         run the full unit/integration suite
#   fmt          check dune-file formatting (no ocamlformat dependency)
#   bench-smoke  reduced-iteration bench (exercises the instrumentation,
#                tracing, profiling, sim-throughput, parallel-parse and
#                served paths; writes *.smoke.json only).  Gates hard:
#                the sim section fails on trace-off/trace-on speedup
#                bars, any interpreter step under tracing, or an
#                engine-differential divergence; the parse section
#                fails below a 1.5x largest-corpus speedup over the
#                sequential reference parser or on any CFG difference;
#                the trace section fails if a mem-trace record's hot
#                path costs more than 30 guest cycles (exact, simulated)

#   fuzz-smoke   fixed-seed differential fuzz: rvsim vs the Sail IR in
#                lockstep, the exhaustive RVC decoder sweep, the rewrite
#                round-trip on two mutatees (counter, block-trace and
#                memory-trace snippets; trace records must equal an
#                interpreter-hook reference), the superblock-engine vs
#                interpreter differential, the parallel-parser CFG
#                differential (minicc mutatees vs the sequential
#                reference, adversarial fuzz streams vs domains=1, at
#                1/2/4/8 oversubscribed domains), and the codegen
#                differential (seeded random snippets lowered and run
#                under rvsim vs an AST evaluator).  Deterministic and
#                fast; prints an `rvcheck replay --seed N --index K`
#                reproducer line on any divergence
#   lint-smoke   static safety net: lint + instrument + rewrite + verify
#                every built-in mutatee; fails on any error-severity
#                diagnostic
#   serve-smoke  end-to-end rvserved/rvq session over a real socket:
#                mixed batch, warm batch must be fully cached and
#                byte-identical, clean shutdown
#   verify-smoke symbolic tier: prove every built-in mutatee rewrite
#                equivalent site by site, and matmul's TraceAPI block-
#                and memory-record sites (no failure; an inconclusive
#                site must name its budget), require every seeded
#                wrong-rewrite class to pass the structural verifier
#                but fail symbolically, and pin the exit-2 convention
#                for unreadable inputs
#   check        fmt + build + test + fuzz-smoke + lint-smoke +
#                verify-smoke + serve-smoke + bench-smoke — what CI and
#                the PR driver run
#   bench        regenerate the evaluation tables, BENCH_trace.json,
#                BENCH_prof.json, BENCH_sim.json, BENCH_parse.json and
#                BENCH_served.json.  The parse section gates hard on a
#                2.5x largest-corpus speedup and zero CFG differences

.PHONY: all build test fmt check bench bench-smoke fuzz-smoke lint-smoke \
	verify-smoke serve-smoke clean

all: build

build:
	dune build

test:
	dune runtest

fmt:
	dune build @fmt

bench-smoke:
	dune exec bench/main.exe -- --smoke

fuzz-smoke:
	dune exec bin/rvcheck.exe -- smoke

lint-smoke:
	dune exec bin/rvlint.exe -- smoke

verify-smoke:
	sh scripts/verify_smoke.sh

serve-smoke:
	sh scripts/serve_smoke.sh

check: fmt build test fuzz-smoke lint-smoke verify-smoke serve-smoke bench-smoke

bench:
	dune exec bench/main.exe

clean:
	dune clean
