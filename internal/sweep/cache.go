package sweep

import (
	"sync"

	"overlapsim/internal/overlap"
	"overlapsim/internal/trace"
)

// VariantCache memoizes the overlap-transformed variants of one profiled
// trace set, keyed by the transformation's variant name. It is safe for
// concurrent use and the zero value is ready: both the sweep Runner and
// core.Study build their variant caching on it, so the keying and locking
// semantics live in exactly one place.
//
// The transform runs under the lock: it is cheap next to the replays that
// consume it, and serializing keeps every variant built exactly once.
type VariantCache struct {
	mu sync.Mutex
	m  map[string]*trace.Set
}

// Get returns the cached variant for the options, building it on first use.
func (c *VariantCache) Get(ps *overlap.ProfiledSet, opts overlap.Options) (*trace.Set, error) {
	key := opts.Variant(ps.Chunks)
	c.mu.Lock()
	defer c.mu.Unlock()
	if ts, ok := c.m[key]; ok {
		return ts, nil
	}
	ts, err := overlap.Transform(ps, opts)
	if err != nil {
		return nil, err
	}
	if c.m == nil {
		c.m = map[string]*trace.Set{}
	}
	c.m[key] = ts
	return ts, nil
}
