package sweep

import (
	"sync"

	"overlapsim/internal/overlap"
	"overlapsim/internal/replay"
)

// VariantCache memoizes the overlap-transformed variants of one profiled
// trace set, keyed by the transformation's variant name, each compiled
// once into the replay Program every replay of it runs. It is safe for
// concurrent use and the zero value is ready: both the sweep Runner and
// core.Study build their variant caching on it, so the keying and locking
// semantics live in exactly one place.
//
// Each key is single-flight: concurrent requests for one variant wait for
// a single transform and compile, while different variants build in
// parallel.
type VariantCache struct {
	mu sync.Mutex
	m  map[string]*variantEntry
}

// variantEntry is one variant's single-flight slot: its Program (which
// holds the transformed set) or the error that building it returned.
type variantEntry struct {
	once sync.Once
	prog *replay.Program
	err  error
}

// Get returns the compiled variant for the options, building it on first
// use.
func (c *VariantCache) Get(ps *overlap.ProfiledSet, opts overlap.Options) (*replay.Program, error) {
	key := opts.Variant(ps.Chunks)
	c.mu.Lock()
	if c.m == nil {
		c.m = map[string]*variantEntry{}
	}
	e := c.m[key]
	if e == nil {
		e = &variantEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		ts, err := overlap.Transform(ps, opts)
		if err != nil {
			e.err = err
			return
		}
		e.prog, e.err = replay.Compile(ts)
	})
	return e.prog, e.err
}
