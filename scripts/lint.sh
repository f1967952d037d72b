#!/bin/sh
# The repository's static-check gate, run identically by CI and locally:
#   1. gofmt       — formatting, whole tree
#   2. go vet      — the standard suspicious-construct checks
#   3. rfclint     — the determinism invariants (see DESIGN.md,
#                    "Determinism invariants"): the per-function rules (no
#                    wall-clock/math-rand in deterministic packages, no
#                    order-sensitive map ranges, no rng.Split in parallel
#                    workers, no duplicated StringCoord coordinates),
#                    applied to every package an exhibit or an rfcd
#                    handler can reach. The run emits the versioned JSON
#                    report, filters it through the checked-in (empty)
#                    baseline, and a separate parse step re-asserts the
#                    report is clean — so a silent output regression in
#                    rfclint cannot green the gate.
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

report=$(mktemp)
trap 'rm -f "$report"' EXIT
status=0
go run ./cmd/rfclint -json -baseline lint-baseline.json ./... >"$report" || status=$?

# Parse step: the gate passes only if the report is well-formed, versioned,
# and carries zero non-baselined findings.
if ! grep -q '"version": "rfclos.lint/1"' "$report"; then
	echo "lint.sh: rfclint did not produce a versioned JSON report (exit $status):" >&2
	cat "$report" >&2
	exit 1
fi
if ! grep -q '"findings": \[\]' "$report"; then
	echo "lint.sh: rfclint findings not covered by lint-baseline.json (exit $status):" >&2
	cat "$report" >&2
	exit 1
fi
if [ "$status" -ne 0 ]; then
	# Findings would have been caught above; this is a stale baseline (3)
	# or an analysis failure (2).
	echo "lint.sh: rfclint exited $status" >&2
	exit "$status"
fi
