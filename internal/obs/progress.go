package obs

import (
	"fmt"
	"sync"
	"time"
)

// Progress wraps a progress sink so it can be handed to concurrently running
// jobs: calls are serialized under a mutex and each line is prefixed with a
// running job counter and the elapsed wall-clock time since the wrapper was
// created, e.g. "[17 1.42s] RFC-3L-R16/uniform load=0.60 ...". A nil sink
// yields a nil wrapper, matching the options structs' "nil means quiet"
// convention.
//
// The prefix reflects completion order and timing, which naturally vary
// across runs and worker counts; progress output is diagnostic and is not
// part of the determinism contract (reports are).
func Progress(sink func(string)) func(string) {
	if sink == nil {
		return nil
	}
	var (
		mu    sync.Mutex
		done  int
		start = time.Now()
	)
	return func(s string) {
		mu.Lock()
		defer mu.Unlock()
		done++
		sink(fmt.Sprintf("[%d %.2fs] %s", done, time.Since(start).Seconds(), s))
	}
}
