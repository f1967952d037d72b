package simdirect

import (
	"testing"

	"rfclos/internal/rng"
	"rfclos/internal/simcore"
	"rfclos/internal/simnet"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// TestDefaultsAgreeAcrossFrontEnds pins both network-class front ends to the
// one simcore defaulting path: a zero config must give the direct engine
// exactly the Table 2 parameters a zero simnet.Config does, except for
// RequestRefresh, which the direct adapter pins to 1 (its random hop choice
// must be re-drawn every cycle).
func TestDefaultsAgreeAcrossFrontEnds(t *testing.T) {
	rrn, err := topology.NewRRN(32, 4, 2, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(rrn, traffic.NewUniform(rrn.Terminals()), simnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := simnet.Config{}.WithDefaults()
	want.RequestRefresh = 1
	if got := s.eng.Config(); got != want {
		t.Errorf("simdirect defaults diverged from simnet's:\n got %+v\nwant %+v", got, want)
	}
	if d := simnet.DefaultConfig(); d != simcore.DefaultConfig() {
		t.Errorf("simnet.DefaultConfig() = %+v, simcore.DefaultConfig() = %+v", d, simcore.DefaultConfig())
	}
}
