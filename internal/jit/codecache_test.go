package jit

// Concurrent-churn coverage for the executable-code cache, run under -race
// by the check gate: singleflight coalescing stays exact under eviction
// pressure, the LRU bound holds while many goroutines populate and evict,
// and a cache hit returns the published artifact without mutating it —
// mirroring the PR 1 module-cache hit-shares-identical-module pin.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
)

// cacheModSrc returns a distinct-content module whose @f doubles its input
// and adds k, so every variant compiles to a different unit but all are
// trivially checkable.
func cacheModSrc(k int) string {
	return fmt.Sprintf(`module "m%d"
func @f fn(i64) i64 regs 4 {
entry:
  %%r1 = mul i64 %%r0, 2
  %%r2 = add i64 %%r1, %d
  ret i64 %%r2
}
`, k, k)
}

func cacheEngine(t *testing.T, src string, cc *CodeCache) (*core.Engine, *Compiler, int) {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	m.ContentID = src // the cache shares code only across content-addressed modules
	comp := New()
	comp.Cache = cc
	e, err := core.NewEngine(m, core.Config{Tier1: comp, Tier1Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	fidx := m.FuncIndex("f")
	if fidx < 0 {
		t.Fatal("no @f in module")
	}
	return e, comp, fidx
}

// TestCodeCacheSingleflightCoalesces: many goroutines demanding the same
// function of the same unit must trigger exactly one lowering; everyone
// else waits on the entry and replays its counter delta.
func TestCodeCacheSingleflightCoalesces(t *testing.T) {
	cc := NewCodeCache(4)
	src := cacheModSrc(1)
	const n = 16
	engs := make([]*core.Engine, n)
	comps := make([]*Compiler, n)
	fidx := 0
	for i := range engs {
		engs[i], comps[i], fidx = cacheEngine(t, src, cc)
	}
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	fns := make([]core.CompiledFunc, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			fns[i] = comps[i].Compile(engs[i], fidx)
		}(i)
	}
	start.Done()
	done.Wait()

	st := cc.Stats()
	if st.Misses != 1 || st.Hits != n-1 {
		t.Fatalf("singleflight broke: %d misses, %d hits, want 1 and %d", st.Misses, st.Hits, n-1)
	}
	for i, fn := range fns {
		if fn == nil {
			t.Fatalf("goroutine %d got a nil closure", i)
		}
	}
	// Counter parity: hit or miss, every compiler reports the identical
	// JITReport delta.
	want := comps[0].Snapshot()
	for i := 1; i < n; i++ {
		if got := comps[i].Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("compiler %d counters %+v differ from %+v", i, got, want)
		}
	}
}

// TestCodeCacheConcurrentEvictionChurn: goroutines hammer more units than
// the cache holds. The LRU bound must hold at every observation point, the
// eviction counter must account for the churn, and every compile —
// coalesced, fresh, or re-compiled after eviction — must return a working
// closure (hits + misses == demands).
func TestCodeCacheConcurrentEvictionChurn(t *testing.T) {
	const capUnits = 2
	const mods = 6
	const workers = 8
	const rounds = 5
	cc := NewCodeCache(capUnits)

	engs := make([]*core.Engine, mods)
	comps := make([]*Compiler, mods)
	fidx := 0
	for i := range engs {
		engs[i], comps[i], fidx = cacheEngine(t, cacheModSrc(i), cc)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % mods
				if fn := comps[i].Compile(engs[i], fidx); fn == nil {
					t.Errorf("worker %d round %d: nil closure for module %d", w, r, i)
				}
				if st := cc.Stats(); st.Units > capUnits {
					t.Errorf("LRU bound violated: %d units, cap %d", st.Units, capUnits)
				}
			}
		}(w)
	}
	wg.Wait()

	st := cc.Stats()
	if st.Units > capUnits {
		t.Fatalf("final unit count %d exceeds cap %d", st.Units, capUnits)
	}
	if st.Hits+st.Misses != workers*rounds {
		t.Fatalf("hits+misses = %d, want every demand accounted (%d)", st.Hits+st.Misses, workers*rounds)
	}
	if st.Evictions == 0 {
		t.Fatal("churn over 6 modules in a 2-unit cache evicted nothing")
	}
	if st.Misses < mods {
		t.Fatalf("only %d misses for %d distinct units", st.Misses, mods)
	}
}

// TestCodeCacheHitNotMutated mirrors the PR 1 module-cache pin: a hit must
// return the artifact the miss published, bit-for-bit — same funcEntry,
// same recorded counter delta, same behavior — and hitting must not grow
// or replace anything in the unit.
func TestCodeCacheHitNotMutated(t *testing.T) {
	cc := NewCodeCache(4)
	src := cacheModSrc(3)
	e1, c1, fidx := cacheEngine(t, src, cc)
	e2, c2, _ := cacheEngine(t, src, cc)

	if fn := c1.Compile(e1, fidx); fn == nil {
		t.Fatal("miss returned nil closure")
	}
	u := cc.unitFor(e1.Module(), c1.fingerprint())
	u.mu.Lock()
	fe1 := u.funcs[fidx]
	u.mu.Unlock()
	meta1 := fe1.meta
	sites1 := u.sites.next

	if fn := c2.Compile(e2, fidx); fn == nil {
		t.Fatal("hit returned nil closure")
	}
	u.mu.Lock()
	fe2 := u.funcs[fidx]
	nfuncs := len(u.funcs)
	u.mu.Unlock()
	if fe2 != fe1 {
		t.Fatal("hit replaced the published funcEntry")
	}
	if fe2.meta != meta1 {
		t.Fatalf("hit mutated the recorded counter delta: %+v -> %+v", meta1, fe2.meta)
	}
	if nfuncs != 1 {
		t.Fatalf("hit grew the unit to %d entries", nfuncs)
	}
	if u.sites.next != sites1 {
		t.Fatalf("hit allocated call sites: %d -> %d", sites1, u.sites.next)
	}
	if st := cc.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want exactly 1 hit and 1 miss", st)
	}

	// The shared closure computes the same answer on both engines.
	for _, pair := range []*core.Engine{e1, e2} {
		pair.CallByName("f", []core.Value{core.IntValue(10)}) // warm past threshold
		got, err := pair.CallByName("f", []core.Value{core.IntValue(10)})
		if err != nil {
			t.Fatal(err)
		}
		if got.I != 23 {
			t.Fatalf("f(10) = %d, want 23", got.I)
		}
	}
}

// TestCodeCacheReleaseModule: releasing a module evicts its units (across
// fingerprints), a never-cached module releases as a no-op, and a
// re-compile after release simply misses and works — release is an
// eviction, not an invalidation.
func TestCodeCacheReleaseModule(t *testing.T) {
	cc := NewCodeCache(8)
	src := cacheModSrc(7)
	e1, c1, fidx := cacheEngine(t, src, cc)
	e2, c2, _ := cacheEngine(t, src, cc)
	c2.DisableInline = true // distinct fingerprint, same module content

	if fn := c1.Compile(e1, fidx); fn == nil {
		t.Fatal("compile returned nil closure")
	}
	if fn := c2.Compile(e2, fidx); fn == nil {
		t.Fatal("compile returned nil closure")
	}
	if st := cc.Stats(); st.Units != 2 {
		t.Fatalf("expected 2 units (two fingerprints), got %+v", st)
	}

	cc.ReleaseModule(e1.Module())
	st := cc.Stats()
	if st.Units != 0 || st.Funcs != 0 {
		t.Fatalf("release left artifacts behind: %+v", st)
	}
	if st.Evictions != 2 {
		t.Fatalf("release evicted %d units, want 2", st.Evictions)
	}

	// Releasing a module the cache never saw is a no-op.
	other, err := ir.Parse(cacheModSrc(8))
	if err != nil {
		t.Fatal(err)
	}
	cc.ReleaseModule(other)
	if got := cc.Stats().Evictions; got != 2 {
		t.Fatalf("no-op release bumped evictions to %d", got)
	}

	// Life after release: a fresh compile misses, repopulates, and runs.
	e3, c3, _ := cacheEngine(t, src, cc)
	if fn := c3.Compile(e3, fidx); fn == nil {
		t.Fatal("post-release compile returned nil closure")
	}
	if st := cc.Stats(); st.Units != 1 || st.Misses != 3 {
		t.Fatalf("post-release stats %+v, want 1 unit and 3 misses", st)
	}
	got, err := e3.CallByName("f", []core.Value{core.IntValue(10)})
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 27 {
		t.Fatalf("f(10) = %d, want 27", got.I)
	}
}

// TestCodeCacheReleaseByContentID: a pipeline-stamped module is addressed by
// its ContentID; release must find its units by it.
func TestCodeCacheReleaseByContentID(t *testing.T) {
	cc := NewCodeCache(8)
	src := cacheModSrc(9)
	e, c, fidx := cacheEngine(t, src, cc)
	e.Module().ContentID = "testhash/native/O0"
	if fn := c.Compile(e, fidx); fn == nil {
		t.Fatal("compile returned nil closure")
	}
	cc.ReleaseModule(e.Module())
	if st := cc.Stats(); st.Units != 0 || st.Evictions != 1 {
		t.Fatalf("ContentID release missed the unit: %+v", st)
	}
}

// TestCodeCacheSkipsModuleWithoutContentID: a module with no content address
// (parsed from text, or compiled with NoCache) compiles privately — it
// works, but never enters the shared cache.
func TestCodeCacheSkipsModuleWithoutContentID(t *testing.T) {
	cc := NewCodeCache(4)
	e, c, fidx := cacheEngine(t, cacheModSrc(10), cc)
	e.Module().ContentID = ""
	if fn := c.Compile(e, fidx); fn == nil {
		t.Fatal("private compile returned nil closure")
	}
	if st := cc.Stats(); st.Units != 0 || st.Hits+st.Misses != 0 {
		t.Fatalf("module without ContentID reached the shared cache: %+v", st)
	}
	if c.Snapshot().Compiled != 1 {
		t.Fatalf("private compile not counted: %+v", c.Snapshot())
	}
}
