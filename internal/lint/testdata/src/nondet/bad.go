// Package nondet exercises the nondet-source rule: forbidden randomness
// and wall-clock imports/calls in a deterministic package. Lines expecting
// a diagnostic carry a lintwant marker checked by lint_test.go.
package nondet

import (
	crand "crypto/rand" //lintwant:nondet-source
	"math/rand"         //lintwant:nondet-source
	"time"
)

func drawBad() int { return rand.Int() }

func readBad(b []byte) { _, _ = crand.Read(b) }

func clockBad() time.Time { return time.Now() } //lintwant:nondet-source

func sinceBad(t time.Time) time.Duration { return time.Since(t) } //lintwant:nondet-source

// clockAnnotated carries the retired suppression comment: it no longer
// hides anything, so the clock read is still a finding.
func clockAnnotated() time.Time {
	return time.Now() //rfclint:allow nondet-source //lintwant:nondet-source
}
