package engine

import (
	"errors"
	"sync/atomic"
	"testing"

	"rfclos/internal/rng"
)

func TestRunReturnsResultsInJobOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		got, err := Run(20, workers, func(job int) (int, error) { return job * job, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 20 {
			t.Fatalf("workers=%d: len=%d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Errorf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunWorkerCountInvariance(t *testing.T) {
	// The core contract: with job-coordinate-derived RNG streams, results
	// are identical for any worker count.
	draw := func(job int) (uint64, error) {
		return rng.At(99, uint64(job)).Uint64(), nil
	}
	serial, err := Run(50, 1, draw)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		parallel, err := Run(50, workers, draw)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("workers=%d: job %d diverged: %d != %d", workers, i, parallel[i], serial[i])
			}
		}
	}
}

func TestRunReportsLowestIndexedError(t *testing.T) {
	errA := errors.New("job 3 failed")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		_, err := Run(10, workers, func(job int) (int, error) {
			ran.Add(1)
			if job == 3 {
				return 0, errA
			}
			if job == 7 {
				return 0, errors.New("job 7 failed")
			}
			return job, nil
		})
		if !errors.Is(err, errA) {
			t.Errorf("workers=%d: err = %v, want job 3's error", workers, err)
		}
		if ran.Load() != 10 {
			t.Errorf("workers=%d: ran %d jobs, want all 10 (no cancellation)", workers, ran.Load())
		}
	}
}

func TestRunZeroJobs(t *testing.T) {
	got, err := Run(0, 4, func(job int) (int, error) { return 0, errors.New("must not run") })
	if err != nil || got != nil {
		t.Errorf("Run(0, ...) = %v, %v; want nil, nil", got, err)
	}
}

func TestWorkersResolution(t *testing.T) {
	if w := Workers(3); w != 3 {
		t.Errorf("Workers(3) = %d", w)
	}
	if w := Workers(0); w < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", w)
	}
	if w := Workers(-2); w < 1 {
		t.Errorf("Workers(-2) = %d, want >= 1", w)
	}
}
