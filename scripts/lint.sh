#!/bin/sh
# The repository's static-check gate, run identically by CI and locally:
#   1. gofmt       — formatting, whole tree
#   2. go vet      — the standard suspicious-construct checks
#   3. rfclint     — the determinism invariants (see DESIGN.md,
#                    "Determinism invariants"): the per-function rules (no
#                    order-sensitive map ranges, no captured parent rng
#                    stream in parallel workers, no duplicated StringCoord
#                    coordinates), applied to every package an exhibit or
#                    an rfcd handler can reach. That deterministic packages
#                    import no math/rand, crypto/rand or time is checked by
#                    go test (internal/lint TestDeterministicImportClosure).
#                    rfclint type-checks what `go list ./...` lists, so the
#                    nested perfbench module is not linted (CI vets and
#                    tests it in its own step). rfclint has no suppression
#                    comment and no accept list. The gate passes only when
#                    it exits 0 and its whole output is the single line
#                    "rfclint: N packages clean" (N >= 1), so a silent
#                    output regression in rfclint cannot green the gate.
#
# Usage: scripts/lint.sh
# Exits non-zero on the first failing check.
set -eu
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "lint.sh: gofmt needed:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...

status=0
out=$(go run ./cmd/rfclint ./... 2>&1) || status=$?
if [ "$status" -ne 0 ]; then
	printf '%s\n' "$out" >&2
	echo "lint.sh: rfclint exited $status" >&2
	exit 1
fi
if ! printf '%s\n' "$out" | grep -Eqx 'rfclint: [1-9][0-9]* packages clean' ||
	[ "$(printf '%s\n' "$out" | wc -l)" -ne 1 ]; then
	echo "lint.sh: rfclint exited 0 but did not print exactly one all-clear line:" >&2
	printf '%s\n' "$out" >&2
	exit 1
fi
