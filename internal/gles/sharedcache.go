package gles

import "sync"

// SharedProgramCache memoises successful shader compilations across
// contexts: a serving deployment keeps one long-lived engine per worker, and
// every worker of a device pool compiles the same small set of kernels. The
// cache shares the immutable compiled artefacts (glsl.CheckedShader,
// shader.Program) between those contexts so each distinct source compiles
// once per pool rather than once per engine.
//
// Sharing compiled Programs across contexts is safe under two conditions
// that the serve layer guarantees and ordinary callers should follow:
//
//   - All sharing contexts use the same *device.Profile instance. The
//     lane-compiled cache on shader.Program is keyed by CostModel pointer
//     identity, so distinct Profile copies would thrash it (correct, but
//     recompiling per draw), and compile-time limit checks must agree.
//   - All sharing contexts run the same pass-pipeline setting. The
//     optimised program form is attached at first compile; the cache key
//     includes the setting so mixed configurations simply do not share.
//
// All methods are safe for concurrent use.
type SharedProgramCache struct {
	mu      sync.Mutex
	entries map[sharedCacheKey]shaderCacheEntry
	hits    int64
	misses  int64
}

type sharedCacheKey struct {
	key    shaderCacheKey
	passes bool
}

// NewSharedProgramCache returns an empty cache.
func NewSharedProgramCache() *SharedProgramCache {
	return &SharedProgramCache{entries: make(map[sharedCacheKey]shaderCacheEntry)}
}

// lookup returns the cached entry for key, counting a hit or miss.
func (s *SharedProgramCache) lookup(key shaderCacheKey, passes bool) (shaderCacheEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[sharedCacheKey{key: key, passes: passes}]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return e, ok
}

// store publishes a successful compilation. The entry's artefacts must be
// fully built (passes attached) before store: after publication other
// contexts execute them without further synchronisation.
func (s *SharedProgramCache) store(key shaderCacheKey, passes bool, e shaderCacheEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[sharedCacheKey{key: key, passes: passes}] = e
}

// Stats returns the lookup hit/miss counters.
func (s *SharedProgramCache) Stats() (hits, misses int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// Len reports the number of cached compilations.
func (s *SharedProgramCache) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// SetSharedProgramCache attaches a cross-context compilation cache,
// consulted by CompileShader before the context's own cache. Pass nil to
// detach. See the SharedProgramCache doc for the sharing conditions.
func (c *Context) SetSharedProgramCache(s *SharedProgramCache) { c.sharedCache = s }
