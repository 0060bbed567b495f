// Package pipeline is the staged compilation pipeline behind the sulong
// facade. It decomposes cc.Compile's monolithic front end into explicit,
// individually-timed stages
//
//	assemble → preprocess → parse → lower (typecheck/codegen) → native-opt → verify
//
// and puts a concurrency-safe, content-addressed module cache in front of
// them. The cache is keyed by (file-set hash, engine flavor, opt level), so
// the libc+user translation unit for a given source compiles exactly once
// per flavor; every later run — including the corpus×engine evaluation
// matrix fanned out across goroutines — is a cache hit that shares the same
// immutable *ir.Module.
//
// Sharing is sound because no engine mutates a compiled module: the managed
// interpreter materializes globals into its own Objects, the native machine
// copies initializers into flat memory, and the tier-1 JIT clones a
// function before optimizing it. The only mutating consumer is
// internal/opt, which the pipeline runs on a private Clone() of the cached
// front-end module before publishing the per-opt-level result. A -race test
// over the full engine matrix (TestConcurrentRunAllEngines) enforces the
// invariant.
package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cc"
	"repro/internal/ir"
	"repro/internal/libc"
	"repro/internal/opt"
)

// Flavor selects the toolchain view of a translation unit — the paper's
// two compilation pipelines (§3.1).
type Flavor int

const (
	// FlavorManaged links the bundled C libc into the unit and wraps it for
	// the managed engine (Safe Sulong's view). OptLevel is ignored: Safe
	// Sulong always executes unoptimized IR.
	FlavorManaged Flavor = iota
	// FlavorNative compiles the user program alone (libc is "precompiled"
	// nlibc) and runs the optimizer at the requested level.
	FlavorNative
)

var flavorNames = [...]string{FlavorManaged: "managed", FlavorNative: "native"}

func (f Flavor) String() string {
	if f < 0 || int(f) >= len(flavorNames) {
		return fmt.Sprintf("Flavor(%d)", int(f))
	}
	return flavorNames[f]
}

// Request describes one translation unit to compile.
type Request struct {
	// Source is the user program (becomes user.c).
	Source string
	// ExtraFiles adds include-able files to the unit.
	ExtraFiles map[string]string
	Flavor     Flavor
	// OptLevel is the native-side optimization level (0 or 3); ignored for
	// FlavorManaged.
	OptLevel int
	// Bare skips the native-opt stage entirely (not even the -O0 backend
	// fold), yielding the raw front-end module. Only meaningful for
	// FlavorNative; used by sulong.CompileBare.
	Bare bool
	// Hardened compiles the managed libc with __SS_HARDENED: the bulk-write
	// string functions consult _bounds_of and truncate at the destination's
	// end instead of overflowing. Ignored for FlavorNative (its hardening
	// lives in the precompiled nlibc, selected at machine construction).
	// The flag changes the unit's contents, so the content hash keys
	// hardened and plain builds to distinct cache entries automatically.
	Hardened bool
}

// Key is the content address of a compiled module: the SHA-256 of the
// complete input file set plus the engine flavor and opt level.
type Key struct {
	Hash     string
	Flavor   Flavor
	OptLevel int
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%s/O%d", k.Hash[:12], k.Flavor, k.OptLevel)
}

// Stage names, in pipeline order.
const (
	StageAssemble   = "assemble"
	StagePreprocess = "preprocess"
	StageParse      = "parse"
	StageLower      = "lower"
	StageNativeOpt  = "native-opt"
	StageVerify     = "verify"
)

// StageTiming records how long one pipeline stage took.
type StageTiming struct {
	Stage    string
	Duration time.Duration
}

// Result is the outcome of a pipeline compile.
type Result struct {
	// Module is the compiled unit. It is shared across all callers that
	// compiled the same Key and MUST be treated as immutable; callers that
	// need to mutate (optimizer experiments, IR surgery) must Clone() it.
	Module *ir.Module
	Key    Key
	// CacheHit reports whether Module came out of the cache without any
	// front-end work.
	CacheHit bool
	// Stages holds per-stage wall-clock timings for the work actually
	// performed (empty on a cache hit).
	Stages []StageTiming
}

// ---- stages ----

// Assemble is stage 0: it builds the translation unit's file set the way
// the flavor's toolchain would (the paper's Fig. 4: libc.c + program.c for
// the managed engine; program.c alone for the native one) and returns the
// main file name.
func Assemble(req Request) (mainFile string, files map[string]string) {
	files = libc.Files()
	for k, v := range req.ExtraFiles {
		files[k] = v
	}
	files["user.c"] = req.Source
	if req.Flavor == FlavorManaged {
		unit := libc.WrapProgram("user.c")
		if req.Hardened {
			unit = "#define __SS_HARDENED 1\n" + unit
		}
		files["__program.c"] = unit
		return "__program.c", files
	}
	return "user.c", files
}

// Fingerprint content-addresses a translation unit: SHA-256 over the sorted
// (name, contents) pairs plus the main file name, with length framing so
// concatenation ambiguities cannot collide.
func Fingerprint(mainFile string, files map[string]string) string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	var lenBuf [8]byte
	writeFramed := func(s string) {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(s)))
		h.Write(lenBuf[:])
		h.Write([]byte(s))
	}
	writeFramed(mainFile)
	for _, name := range names {
		writeFramed(name)
		writeFramed(files[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// NativeOpt is the native-side optimization stage. It mutates mod in place,
// so the cache only ever runs it on a private clone. Level 0 still applies
// the backend constant-global fold the paper caught Clang doing at -O0
// (Fig. 13); level >= 2 runs the full pipeline.
func NativeOpt(mod *ir.Module, optLevel int) {
	if optLevel >= 2 {
		opt.RunO3(mod)
	} else {
		opt.RunO0(mod)
	}
}

// CompileUncached runs every stage for req with no cache interaction and
// returns a module the caller owns exclusively.
func CompileUncached(req Request) (*ir.Module, []StageTiming, error) {
	var timings []StageTiming
	timed := func(stage string, f func() error) error {
		t0 := time.Now()
		err := f()
		timings = append(timings, StageTiming{Stage: stage, Duration: time.Since(t0)})
		return err
	}

	var (
		mainFile string
		files    map[string]string
		toks     []cc.Token
		prog     *cc.Program
		mod      *ir.Module
		err      error
	)
	_ = timed(StageAssemble, func() error {
		mainFile, files = Assemble(req)
		return nil
	})
	if err = timed(StagePreprocess, func() error {
		toks, err = cc.Preprocess(mainFile, files, cc.Predefined(nil))
		return err
	}); err != nil {
		return nil, timings, err
	}
	if err = timed(StageParse, func() error {
		prog, err = cc.ParseProgram(toks)
		return err
	}); err != nil {
		return nil, timings, err
	}
	if err = timed(StageLower, func() error {
		mod, err = cc.Lower(prog, mainFile)
		return err
	}); err != nil {
		return nil, timings, err
	}
	if req.Flavor == FlavorNative && !req.Bare {
		_ = timed(StageNativeOpt, func() error {
			NativeOpt(mod, req.OptLevel)
			return nil
		})
	}
	if err = timed(StageVerify, func() error {
		if verr := ir.Verify(mod); verr != nil {
			return fmt.Errorf("pipeline: generated invalid IR: %w", verr)
		}
		return nil
	}); err != nil {
		return nil, timings, err
	}
	return mod, timings, nil
}

// ---- cache ----

// CacheStats is a snapshot of cache effectiveness counters.
type CacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// HitRate is Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type entry struct {
	ready chan struct{} // closed when mod/err are final
	mod   *ir.Module
	err   error
	// stages records the work done by the goroutine that filled the entry.
	stages []StageTiming
}

// Cache is a concurrency-safe, content-addressed module cache. Concurrent
// requests for the same Key are coalesced: one goroutine compiles, the rest
// block on the entry and then share the resulting module.
//
// Internally it holds two maps: front-end entries keyed by (hash, flavor)
// — the expensive preprocess/parse/lower work, shared by every opt level —
// and published modules keyed by the full (hash, flavor, opt level).
type Cache struct {
	mu       sync.Mutex
	frontend map[Key]*entry // OptLevel field fixed to frontendLevel
	modules  map[Key]*entry

	hits   atomic.Uint64
	misses atomic.Uint64
}

// frontendLevel marks front-end (pre-opt) cache entries.
const frontendLevel = -1

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{frontend: map[Key]*entry{}, modules: map[Key]*entry{}}
}

// Default is the process-wide cache the sulong facade compiles through.
var Default = NewCache()

// normalizeKey canonicalizes a request's cache coordinates so equivalent
// requests land on the same entry.
func normalizeKey(req Request, hash string) Key {
	k := Key{Hash: hash, Flavor: req.Flavor, OptLevel: req.OptLevel}
	if req.Flavor == FlavorManaged {
		k.OptLevel = 0 // Safe Sulong always runs unoptimized IR
	} else if req.Bare {
		k.OptLevel = frontendLevel // the raw front-end module
	} else if k.OptLevel >= 2 {
		k.OptLevel = 3
	} else {
		k.OptLevel = 0
	}
	return k
}

// lookup finds or creates an entry in m. It reports whether the caller must
// fill (and close) the entry.
func (c *Cache) lookup(m map[Key]*entry, k Key) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := m[k]; ok {
		return e, false
	}
	e := &entry{ready: make(chan struct{})}
	m[k] = e
	return e, true
}

// fill publishes a result into an entry and wakes all waiters.
func (e *entry) fill(mod *ir.Module, stages []StageTiming, err error) {
	e.mod, e.stages, e.err = mod, stages, err
	close(e.ready)
}

// forget drops a failed entry once it is filled. Waiters already holding e
// still see its error, but a source that does not compile is never kept:
// Release finds entries by module, and a failed entry has none, so a
// cached failure could never be released.
func (c *Cache) forget(k Key, e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range []map[Key]*entry{c.frontend, c.modules} {
		if m[k] == e {
			delete(m, k)
		}
	}
}

// frontendModule returns the shared post-lower (pre-opt) module for req,
// compiling it at most once per (hash, flavor).
func (c *Cache) frontendModule(req Request, hash string) (*entry, error) {
	fk := Key{Hash: hash, Flavor: req.Flavor, OptLevel: frontendLevel}
	e, fillIt := c.lookup(c.frontend, fk)
	if fillIt {
		bare := req
		bare.Bare = true
		mod, stages, err := CompileUncached(bare)
		if err == nil {
			// Content-address the unit before publication (full input-set
			// hash, not the display-truncated Key.String), so downstream
			// caches — the executable-code cache keys tier-1 units by it —
			// never pay a printed-IR rehash per module.
			mod.ContentID = fmt.Sprintf("%s/%s/O%d", hash, fk.Flavor, fk.OptLevel)
		}
		e.fill(mod, stages, err)
		if err != nil {
			c.forget(fk, e)
		}
	}
	<-e.ready
	return e, e.err
}

// Compile resolves req through the cache. On a hit the returned Result
// shares the cached module (immutable by contract); on a miss exactly one
// goroutine runs the missing stages while concurrent requests for the same
// key wait and then count as hits of the freshly published entry.
func (c *Cache) Compile(req Request) (*Result, error) {
	mainFile, files := Assemble(req)
	hash := Fingerprint(mainFile, files)
	key := normalizeKey(req, hash)

	e, fillIt := c.lookup(c.modules, key)
	if !fillIt {
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		c.hits.Add(1)
		return &Result{Module: e.mod, Key: key, CacheHit: true}, nil
	}

	c.misses.Add(1)
	mod, stages, err := c.build(req, hash, key)
	e.fill(mod, stages, err)
	if err != nil {
		c.forget(key, e)
		return nil, err
	}
	return &Result{Module: mod, Key: key, Stages: stages}, nil
}

// build runs the stages a miss needs: the (possibly cached) front end,
// then — for optimized native flavors — a clone + native-opt + verify.
func (c *Cache) build(req Request, hash string, key Key) (*ir.Module, []StageTiming, error) {
	fe, err := c.frontendModule(req, hash)
	if err != nil {
		return nil, nil, err
	}
	stages := append([]StageTiming(nil), fe.stages...)
	if key.OptLevel == frontendLevel || req.Flavor == FlavorManaged {
		// The front-end module is the final artifact.
		return fe.mod, stages, nil
	}
	// Native flavor at a concrete opt level: optimize a private clone so the
	// shared front-end module stays pristine.
	t0 := time.Now()
	mod := fe.mod.Clone()
	NativeOpt(mod, key.OptLevel)
	stages = append(stages, StageTiming{Stage: StageNativeOpt, Duration: time.Since(t0)})
	t0 = time.Now()
	if verr := ir.Verify(mod); verr != nil {
		return nil, stages, fmt.Errorf("pipeline: optimizer produced invalid IR: %w", verr)
	}
	stages = append(stages, StageTiming{Stage: StageVerify, Duration: time.Since(t0)})
	return mod, stages, nil
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.modules) + len(c.frontend)
	c.mu.Unlock()
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n}
}

// Release drops every published entry whose module is mod. Drivers that
// retire a module for good (the fuzzing-campaign judge) call it so one-shot
// programs do not accumulate in the cache; a subsequent Compile of the same
// source simply misses and recompiles. Entries still being filled are left
// alone — releasing mid-flight would race the fill, and the filling
// goroutine's waiters need the entry to resolve.
func (c *Cache) Release(mod *ir.Module) {
	if mod == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.modules {
		select {
		case <-e.ready:
			if e.mod != mod {
				continue
			}
			delete(c.modules, k)
			// The front-end entry behind a native-flavor module holds a
			// different *ir.Module (opt levels build from clones), so it is
			// found by key, not by pointer.
			fk := Key{Hash: k.Hash, Flavor: k.Flavor, OptLevel: frontendLevel}
			if fe, ok := c.frontend[fk]; ok {
				select {
				case <-fe.ready:
					delete(c.frontend, fk)
				default:
				}
			}
		default:
		}
	}
}

// Reset drops every entry and zeroes the counters (tests and cold-start
// benchmarks).
func (c *Cache) Reset() {
	c.mu.Lock()
	c.frontend = map[Key]*entry{}
	c.modules = map[Key]*entry{}
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
}

// Compile resolves req through the process-wide Default cache.
func Compile(req Request) (*Result, error) { return Default.Compile(req) }
