package harness

import (
	sulong "repro"
)

// CacheReport groups every process-wide cache's effectiveness counters for
// the bench CLIs' machine-readable reports (fuzzbench -json, perfbench
// -json). Field names — and therefore the emitted JSON keys — are sorted
// alphabetically at every level, so reports from different runs diff
// stably against each other.
type CacheReport struct {
	CodeCache CodeCacheReport     `json:"codeCache"`
	Pipeline  PipelineCacheReport `json:"pipeline"`
}

// CodeCacheReport mirrors jit.CodeCacheStats with key-sorted fields.
type CodeCacheReport struct {
	Evictions uint64 `json:"evictions"`
	Funcs     int    `json:"funcs"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Units     int    `json:"units"`
}

// PipelineCacheReport mirrors pipeline.CacheStats with key-sorted fields
// plus the derived hit rate.
type PipelineCacheReport struct {
	Entries int     `json:"entries"`
	HitRate float64 `json:"hitRate"`
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
}

// Caches snapshots the pipeline module cache and the executable-code cache
// in one report.
func Caches() CacheReport {
	pc := sulong.CacheStats()
	cc := sulong.CodeCacheStats()
	return CacheReport{
		CodeCache: CodeCacheReport{
			Evictions: cc.Evictions,
			Funcs:     cc.Funcs,
			Hits:      cc.Hits,
			Misses:    cc.Misses,
			Units:     cc.Units,
		},
		Pipeline: PipelineCacheReport{
			Entries: pc.Entries,
			HitRate: pc.HitRate(),
			Hits:    pc.Hits,
			Misses:  pc.Misses,
		},
	}
}
