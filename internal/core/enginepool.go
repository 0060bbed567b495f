package core

import (
	"sync/atomic"

	"repro/internal/ir"
)

// EnginePool is a compatibility stub: engines are no longer reused, and
// NewEngine is the only way one is built. The type stays only so that the
// benchmark under ledger/, which links against it, keeps compiling. Get is
// NewEngine plus a miss count, Put is Close, and nothing in the repository
// outside ledger/ calls it.
type EnginePool struct{ misses atomic.Uint64 }

// EnginePoolStats is the stub's counter snapshot; Hits is always zero.
type EnginePoolStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// NewEnginePool returns an empty stub pool; perModule is ignored.
func NewEnginePool(perModule int) *EnginePool { return &EnginePool{} }

// Get counts a miss and returns NewEngine(mod, cfg).
func (p *EnginePool) Get(mod *ir.Module, cfg Config) (*Engine, error) {
	p.misses.Add(1)
	return NewEngine(mod, cfg)
}

// Put closes e.
func (p *EnginePool) Put(e *Engine) { e.Close() }

// Stats returns the miss count.
func (p *EnginePool) Stats() EnginePoolStats { return EnginePoolStats{Misses: p.misses.Load()} }

// Reset zeroes the counters.
func (p *EnginePool) Reset() { p.misses.Store(0) }
