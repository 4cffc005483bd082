package experiment

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestExperimentsWorkerCountInvariant is the determinism contract of the
// sweep rewiring: every grid-based experiment renders byte-identical tables
// no matter how many workers replay its points.
func TestExperimentsWorkerCountInvariant(t *testing.T) {
	for _, id := range []string{"e2", "e2f", "e3", "a1", "a2", "a3"} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			d, err := Find(id)
			if err != nil {
				t.Fatal(err)
			}
			outputs := make([]bytes.Buffer, 3)
			for i, workers := range []int{1, 2, 8} {
				s := NewSuite()
				s.Quick = true
				s.Workers = workers
				if err := d.Run(s, &outputs[i]); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
			}
			for i := 1; i < len(outputs); i++ {
				if !bytes.Equal(outputs[0].Bytes(), outputs[i].Bytes()) {
					t.Fatalf("output differs between worker counts:\n--- serial ---\n%s\n--- parallel ---\n%s",
						outputs[0].String(), outputs[i].String())
				}
			}
		})
	}
}

// TestPipelineForConcurrent hammers the suite's pipeline cache: every
// goroutine must get the same traced pipeline, with the trace run once.
func TestPipelineForConcurrent(t *testing.T) {
	s := NewSuite()
	s.Quick = true
	const goroutines = 16
	pls := make([]Pipeline, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer wg.Done()
			pl, err := s.PipelineFor("pingpong")
			if err != nil {
				panic(fmt.Sprintf("PipelineFor: %v", err))
			}
			pls[i] = pl
		}()
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if pls[i] != pls[0] {
			t.Fatal("concurrent PipelineFor returned distinct pipelines")
		}
	}
	if got := s.Stats().Traces; got != 1 {
		t.Errorf("concurrent PipelineFor traced %d times, want 1", got)
	}
}
