package service

import (
	"encoding/json"
	"reflect"
	"testing"

	"rfclos/internal/core"
)

// FuzzSpecNormalize decodes arbitrary POST /v1/topology bodies and checks
// Normalize never panics, admits no rfc over the switch limit, and is
// idempotent: a normalized spec normalizes to itself, with the same
// Canonical string and cache Key.
func FuzzSpecNormalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var sp Spec
		if json.Unmarshal(body, &sp) != nil {
			return
		}
		norm, err := sp.Normalize()
		if err != nil {
			return
		}
		if norm.Kind == "rfc" {
			p := core.Params{Radix: norm.Radix, Levels: norm.Levels, Leaves: norm.Leaves}
			if sw := p.Switches(); sw <= 0 || sw > maxSwitches {
				t.Fatalf("accepted %s with %d switches", norm.Canonical(), sw)
			}
		}
		again, err := norm.Normalize()
		if err != nil {
			t.Fatalf("normalized %+v rejected on a second pass: %v", norm, err)
		}
		if !reflect.DeepEqual(again, norm) {
			t.Fatalf("Normalize not a fixed point: %+v -> %+v", norm, again)
		}
		if again.Canonical() != norm.Canonical() || again.Key() != norm.Key() {
			t.Fatalf("second pass changed %s/%s to %s/%s", norm.Canonical(), norm.Key(), again.Canonical(), again.Key())
		}
	})
}
