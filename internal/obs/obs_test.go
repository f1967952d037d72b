package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestProgressCountsAndSerializes(t *testing.T) {
	var mu []string
	sink := Progress(func(s string) { mu = append(mu, s) })
	// Concurrent emissions must all arrive, each with a distinct counter.
	var wg sync.WaitGroup
	for job := 0; job < 25; job++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sink(fmt.Sprintf("job %d", job))
		}()
	}
	wg.Wait()
	if len(mu) != 25 {
		t.Fatalf("got %d progress lines, want 25", len(mu))
	}
	seen := map[string]bool{}
	for _, line := range mu {
		if !strings.HasPrefix(line, "[") {
			t.Fatalf("line %q lacks counter prefix", line)
		}
		counter := line[1:strings.Index(line, " ")]
		if seen[counter] {
			t.Fatalf("duplicate counter %s", counter)
		}
		seen[counter] = true
	}
	if Progress(nil) != nil {
		t.Error("Progress(nil) should be nil")
	}
}

// TestTime checks that a stopped timer adds a positive duration to its
// counter, creating it only on stop, and that a nil registry ignores it.
func TestTime(t *testing.T) {
	g := NewRegistry()
	stop := g.Time("op_ns_total")
	var b strings.Builder
	if _, err := g.WriteTo(&b); err != nil || b.Len() != 0 {
		t.Fatalf("counter rendered before stop: %q (err=%v)", b.String(), err)
	}
	for i := 0; i < 1000; i++ {
		fmt.Fprint(io.Discard, i)
	}
	stop()
	b.Reset()
	if _, err := g.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	var got int64
	if n, err := fmt.Sscanf(b.String(), "op_ns_total %d\n", &got); n != 1 || err != nil || got <= 0 {
		t.Errorf("after one timing /metrics reads %q, want op_ns_total > 0", b.String())
	}

	var none *Registry
	none.Time("op_ns_total")() // must not panic
}
