package coverage

import (
	"sync"

	"photodtn/internal/model"
	"photodtn/internal/obs"
)

// FootprintCache memoizes photo footprints against a fixed Map. Footprints
// depend only on photo metadata and the (immutable) PoI map, so a node can
// compile each photo once and reuse the result at every contact — the
// compiled form of "metadata is cheap to analyze".
//
// Concurrency contract: a FootprintCache is safe for concurrent use. Reads
// take a shared lock, so concurrent readers (runner workers sharing one
// compiled cache, concurrent peer contacts) never serialise against
// each other; a miss compiles the footprint outside the lock and then
// briefly takes the exclusive lock to publish it. Cached Footprints are
// immutable — callers must not modify the Entries slice they receive.
type FootprintCache struct {
	m   *Map
	mu  sync.RWMutex
	fps map[model.PhotoID]Footprint

	// hits and misses are optional nil-safe observability counters
	// (SetMetrics); nil costs only a nil check per lookup.
	hits   *obs.Counter
	misses *obs.Counter
}

// NewFootprintCache returns an empty cache over the map.
func NewFootprintCache(m *Map) *FootprintCache {
	return &FootprintCache{m: m, fps: make(map[model.PhotoID]Footprint)}
}

// Map returns the underlying PoI map.
func (c *FootprintCache) Map() *Map { return c.m }

// SetMetrics installs hit/miss counters. Call before the cache is shared
// across goroutines (typically right after NewFootprintCache); nil counters
// disable the corresponding count.
func (c *FootprintCache) SetMetrics(hits, misses *obs.Counter) {
	c.hits = hits
	c.misses = misses
}

// Of returns the (possibly memoized) footprint of the photo.
func (c *FootprintCache) Of(p model.Photo) Footprint {
	c.mu.RLock()
	fp, ok := c.fps[p.ID]
	c.mu.RUnlock()
	if ok {
		c.hits.Inc()
		return fp
	}
	c.misses.Inc()
	// Compile outside the lock: Map is immutable and footprints are pure
	// functions of the photo, so two racing compilations agree.
	fp = c.m.Footprint(p)
	c.mu.Lock()
	if prev, ok := c.fps[p.ID]; ok {
		fp = prev // keep the first published copy
	} else {
		c.fps[p.ID] = fp
	}
	c.mu.Unlock()
	return fp
}

// Len returns the number of memoized footprints.
func (c *FootprintCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.fps)
}

// Invalidate drops the memoized footprint of a photo, forcing the next Of
// to recompile it. It exists for callers whose photo metadata can be
// corrected after the fact (e.g. a re-announced photo with fixed
// orientation); footprints of unchanged photos are never wrong, so most
// callers never need it.
func (c *FootprintCache) Invalidate(id model.PhotoID) {
	c.mu.Lock()
	delete(c.fps, id)
	c.mu.Unlock()
}
