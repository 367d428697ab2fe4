#!/bin/sh
# verify-smoke: the symbolic tier's CI gate.
#
#   1. `rvverify smoke`: instrument + rewrite every built-in minicc
#      mutatee and symbolically prove every patch site; trace matmul's
#      multiply with TraceAPI block records (every site must prove) and
#      memory records (no site may fail; an inconclusive one must name
#      the budget it ran out of); then require every seeded
#      wrong-rewrite class to pass the structural verifier but be
#      disproved symbolically
#   2. file-based round trip: rewrite fib on disk with a manifest (its
#      --stats table must show the parse and rewrite spans), then
#      `rvverify verify` and `rvlint verify --symbolic` must both prove
#      it (exit 0)
#   3. exit-code convention: unreadable inputs exit 2 (the rvdump
#      --json convention), for missing files as well as malformed
#      manifests — regression for the Arg.file 124 leak.  (The
#      disproof exit path is exercised in-process by step 1's seeded
#      corpus and by test/test_verify.ml.)
#
# Run via `make verify-smoke` (part of `make check`).
set -eu

dune build bin/rvverify.exe bin/rvlint.exe bin/rvrewrite.exe bin/mkmutatee.exe
B=_build/default/bin
DIR=$(mktemp -d)
cleanup() { rm -rf "$DIR"; }
trap cleanup EXIT INT TERM

"$B/rvverify.exe" smoke

# file-based round trip: both CLIs prove a healthy on-disk rewrite
"$B/mkmutatee.exe" --builtin fib -o "$DIR/fib.elf" >/dev/null
"$B/rvrewrite.exe" "$DIR/fib.elf" "$DIR/fib_rw.elf" \
    --manifest "$DIR/m.json" --entry main --stats >"$DIR/rewrite.out"
for row in parse.traverse_ns rewrite.apply_ns; do
    grep -q "^$row " "$DIR/rewrite.out" || {
        echo "verify-smoke: rvrewrite --stats has no $row row" >&2
        exit 1
    }
done
"$B/rvverify.exe" verify "$DIR/fib.elf" "$DIR/fib_rw.elf" \
    --manifest "$DIR/m.json" >/dev/null
"$B/rvlint.exe" verify "$DIR/fib.elf" "$DIR/fib_rw.elf" \
    --manifest "$DIR/m.json" --symbolic >/dev/null

expect_rc() {
    want=$1
    shift
    rc=0
    "$@" >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "verify-smoke: expected exit $want, got $rc: $*" >&2
        exit 1
    fi
}

# unreadable inputs exit 2, never cmdliner's 124
echo 'not json' >"$DIR/bad.json"
expect_rc 2 "$B/rvverify.exe" verify "$DIR/fib.elf" "$DIR/fib_rw.elf" \
    --manifest "$DIR/bad.json"
expect_rc 2 "$B/rvverify.exe" verify "$DIR/fib.elf" "$DIR/fib_rw.elf" \
    --manifest "$DIR/no_such.json"
expect_rc 2 "$B/rvlint.exe" verify "$DIR/fib.elf" "$DIR/fib_rw.elf" \
    --manifest "$DIR/bad.json"
expect_rc 2 "$B/rvlint.exe" verify "$DIR/no_such.elf" "$DIR/fib_rw.elf" \
    --manifest "$DIR/m.json"
expect_rc 2 "$B/rvlint.exe" lint "$DIR/no_such.elf"

echo "verify-smoke: ok"
