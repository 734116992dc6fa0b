package serve

// Accessors the external tests use to observe a server's live state.

// Cache exposes the result cache.
func (s *Server) Cache() *Cache { return s.cache }

// Datasets exposes the dataset store.
func (s *Server) Datasets() *Store { return s.datasets }

// EntryInfo describes one retained result: the hashed key, its
// admission-time size estimate, and the canonical Params. The
// byte-accounting invariant test sums Bytes over Entries and requires it
// to equal both Cache.Bytes and the serve_cache_bytes gauge.
type EntryInfo struct {
	Key    string
	Bytes  int64
	Params Params
}

// Entries lists the retained results, most recently used first.
func (c *Cache) Entries() []EntryInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]EntryInfo, 0, c.lru.len())
	c.lru.each(func(key string, e *cacheEntry, size int64) {
		out = append(out, EntryInfo{Key: key, Bytes: size, Params: e.p})
	})
	return out
}

// Info returns the listing entry for id, refreshing its recency.
func (s *Store) Info(id string) (DatasetInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.lru.get(id)
	if !ok {
		return DatasetInfo{}, false
	}
	return e.info, true
}
