package ufs

import "ufsclust/internal/telemetry"

// AttachTelemetry registers the file system's allocator and metadata
// counters — the stats the late ResetStats shim historically forgot to
// zero, which is why they live in the registry now: Snapshot/Delta
// measurement needs no zeroing at all.
func (fs *Fs) AttachTelemetry(tel *telemetry.Telemetry) {
	r := tel.Reg
	r.Counter("fs.bmap_calls", func() int64 { return fs.BmapCalls })
	r.Counter("fs.alloc_calls", func() int64 { return fs.AllocCalls })
	r.Counter("fs.frag_allocs", func() int64 { return fs.FragAllocs })
	r.Counter("fs.realloc_frags", func() int64 { return fs.ReallocFrags })
	r.Counter("fs.bmap_cache_hits", func() int64 { return fs.BmapCacheHits })
	r.Counter("fs.sync_meta_writes", func() int64 { return fs.SyncMetaWrites })
	r.Counter("fs.ordered_meta_writes", func() int64 { return fs.OrderedMetaWrites })
	r.Counter("fs.bc_hits", func() int64 { return fs.BC.Hits })
	r.Counter("fs.bc_misses", func() int64 { return fs.BC.Misses })
	r.Counter("fs.bc_evictions", func() int64 { return fs.BC.Evictions })
	r.Counter("fs.bc_writes", func() int64 { return fs.BC.Writes })
	if fs.J != nil {
		// Journal metrics exist only on journaled file systems, so the
		// pinned metric manifest of a default machine never changes.
		fs.J.AttachTelemetry(tel)
		r.Counter("fs.journal_meta_writes", func() int64 { return fs.JournalMetaWrites })
	}
}
