package main

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	sulong "repro"
	"repro/internal/benchprog"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/nativevm"
	"repro/internal/pipeline"
)

// window is the state captured when a workload's timed window opens.
type window struct {
	start time.Time
	rt    runtimeSample
	pc    pipeline.CacheStats
	cc    jit.CodeCacheStats
	ep    core.EnginePoolStats
}

func openWindow() *window {
	return &window{
		start: time.Now(),
		rt:    readRuntime(),
		pc:    sulong.CacheStats(),
		cc:    sulong.CodeCacheStats(),
		ep:    sulong.EnginePoolStats(),
	}
}

// close ends the window after ops operations and records the per-layer
// metrics that are measured over the window itself: cache effectiveness and
// Go runtime cost. It returns the window's wall time in seconds.
func (w *window) close(b *bench, ops int) float64 {
	secs := time.Since(w.start).Seconds()
	d := w.rt.to(readRuntime())
	pc, cc, ep := sulong.CacheStats(), sulong.CodeCacheStats(), sulong.EnginePoolStats()
	b.setLayer("pipeline.hit_frac", frac(pc.Hits-w.pc.Hits, pc.Misses-w.pc.Misses), "frac")
	b.setLayer("pipeline.entries", float64(pc.Entries), "count")
	b.setLayer("jit.codecache.hit_frac", frac(cc.Hits-w.cc.Hits, cc.Misses-w.cc.Misses), "frac")
	b.setLayer("jit.codecache.units", float64(cc.Units), "count")
	b.setLayer("core.pool.hit_frac", frac(ep.Hits-w.ep.Hits, ep.Misses-w.ep.Misses), "frac")
	b.setLayer("go.gc_cpu_frac", d.gcCPUFrac, "frac")
	b.setLayer("go.gc_cycles", float64(d.gcCycles), "count")
	if ops > 0 {
		b.setLayer("go.alloc_mb_per_op", float64(d.allocBytes)/(1<<20)/float64(ops), "MB")
	}
	return secs
}

// frac is hits / (hits + misses), or 0 when nothing was looked up.
func frac(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// probePrograms are the fixed inputs of the layer probes: the peak
// workload's programs at their small size, plus hello world.
func probePrograms() ([]benchprog.Benchmark, error) {
	var out []benchprog.Benchmark
	for _, name := range peakPrograms {
		p, err := benchprog.Get(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

const helloSrc = "#include <stdio.h>\nint main(void) { printf(\"Hello, World!\\n\"); return 0; }\n"

// finishTrace runs the layer probes, derives every per-layer metric from
// the recorded spans, and writes the trace.
func (b *bench) finishTrace() error {
	progs, err := probePrograms()
	if err != nil {
		return err
	}
	// Every span so far belongs to the workload; only those can have slowed
	// its end-to-end figures.
	workloadSpans := len(b.tr.spans)
	root := b.tr.begin("probes", "", -1, 0, 0)
	for _, p := range []func([]benchprog.Benchmark, int) error{
		b.probePipeline, b.probeCore, b.probeJIT, b.probeNative,
	} {
		if err := p(progs, root); err != nil {
			return err
		}
	}
	b.probeHarness(root)
	if err := b.probeCampaign(root); err != nil {
		return err
	}
	b.tr.end(root)

	us := func(name string) float64 { return median(b.tr.durations(name)) * 1000 }
	med := func(name string) float64 { return median(b.tr.durations(name)) }
	b.setLayer("pipeline.fingerprint_us", us("pipeline.fingerprint"), "us")
	b.setLayer("pipeline.lookup_us", us("pipeline.lookup"), "us")
	for _, st := range []struct{ stage, metric string }{
		{pipeline.StagePreprocess, "pipeline.preprocess_ms"},
		{pipeline.StageParse, "pipeline.parse_ms"},
		{pipeline.StageLower, "pipeline.lower_ms"},
		{pipeline.StageNativeOpt, "pipeline.opt_ms"},
		{pipeline.StageVerify, "pipeline.verify_ms"},
	} {
		b.setLayer(st.metric, med("pipeline."+st.stage), "ms")
	}
	b.setLayer("core.construct_ms", med("core.new_engine"), "ms")
	b.setLayer("core.pool_get_ms", med("core.pool_get"), "ms")
	b.setLayer("nativevm.new_ms", med("nativevm.new"), "ms")
	cells := b.tr.durations("harness.run_case")
	b.setLayer("harness.cell_ms.p50", quantile(cells, 0.5), "ms")
	b.setLayer("harness.cell_ms.p90", quantile(cells, 0.9), "ms")
	b.setLayer("gen.generate_ms", med("gen.generate"), "ms")

	summary := b.tr.summarize()
	n := 0
	for _, s := range summary {
		n += s.Count
	}
	b.setLayer("trace.spans", float64(n), "count")
	if secs, ok := b.meta["window_s"].(float64); ok && secs > 0 {
		b.setLayer("trace.overhead_frac", float64(workloadSpans)*spanCost().Seconds()/secs, "frac")
	}
	return b.writeTrace(summary)
}

// probePipeline times the cache fingerprint, a cache hit, and every stage
// of an uncached compile (managed flavor, and native -O3 for the
// optimizer).
func (b *bench) probePipeline(progs []benchprog.Benchmark, root int) error {
	srcs := []string{helloSrc}
	for _, p := range progs {
		srcs = append(srcs, p.Source)
	}
	managed := sulong.Config{Engine: sulong.EngineSafeSulong}
	for i, src := range srcs {
		req := pipeline.Request{Source: src, Flavor: pipeline.FlavorManaged}
		for r := 0; r < 20; r++ {
			b.tr.timed("pipeline.fingerprint", "", root, 0, int64(i), func() {
				main, files := pipeline.Assemble(req)
				_ = pipeline.Fingerprint(main, files)
			})
		}
		if _, err := sulong.CompileFor(src, managed); err != nil {
			return fmt.Errorf("probe compile: %w", err)
		}
		for r := 0; r < 20; r++ {
			var err error
			b.tr.timed("pipeline.lookup", "", root, 0, int64(i), func() { _, err = sulong.CompileFor(src, managed) })
			if err != nil {
				return err
			}
		}
		for _, r := range []pipeline.Request{req, {Source: src, Flavor: pipeline.FlavorNative, OptLevel: 3}} {
			for rep := 0; rep < 2; rep++ {
				id := b.tr.begin("pipeline.compile_uncached", r.Flavor.String(), root, 0, int64(i))
				t0 := time.Now()
				_, stages, err := pipeline.CompileUncached(r)
				b.tr.end(id)
				if err != nil {
					return fmt.Errorf("probe uncached compile: %w", err)
				}
				at := t0
				for _, st := range stages {
					// The managed flavor has no optimizer stage; the
					// native -O3 compile supplies pipeline.opt_ms.
					if r.Flavor == pipeline.FlavorNative && st.Stage != pipeline.StageNativeOpt {
						at = at.Add(st.Duration)
						continue
					}
					b.tr.add("pipeline."+st.Stage, id, at, st.Duration)
					at = at.Add(st.Duration)
				}
			}
		}
	}
	return nil
}

// probeCore times engine construction, a pool revival and a tier-0 run of
// each probe program, and counts the steps and allocations those runs take.
func (b *bench) probeCore(progs []benchprog.Benchmark, root int) error {
	var steps, allocs int64
	runMS := 0.0
	for i, p := range progs {
		mod, err := sulong.CompileOnly(p.Source)
		if err != nil {
			return err
		}
		cfg := core.Config{Args: []string{p.SmallArg}, Stdout: io.Discard}
		var runs []float64
		for r := 0; r < 3; r++ {
			var e *core.Engine
			b.tr.timed("core.new_engine", p.Name, root, 0, int64(i), func() { e, err = core.NewEngine(mod, cfg) })
			if err != nil {
				return err
			}
			d := b.tr.timed("core.run", p.Name, root, 0, int64(i), func() { _, err = e.Run() })
			e.Close()
			if err != nil {
				return fmt.Errorf("probe %s: %w", p.Name, err)
			}
			runs = append(runs, ms(d))
			if r == 0 {
				st := e.Stats()
				steps += st.Steps
				allocs += st.Allocs
			}
		}
		runMS += median(runs)
		pool := core.NewEnginePool(0)
		e, err := pool.Get(mod, cfg)
		if err != nil {
			return err
		}
		pool.Put(e)
		for r := 0; r < 5; r++ {
			b.tr.timed("core.pool_get", p.Name, root, 0, int64(i), func() { e, err = pool.Get(mod, cfg) })
			if err != nil {
				return err
			}
			pool.Put(e)
		}
		pool.Reset()
	}
	b.setLayer("core.run_ms", runMS, "ms")
	b.setLayer("core.steps", float64(steps), "count")
	b.setLayer("core.allocs", float64(allocs), "count")
	return nil
}

// probeJIT runs each probe program under the Safe Sulong peak runner and
// sums the tier-1 compiler's counters.
func (b *bench) probeJIT(progs []benchprog.Benchmark, root int) error {
	var compiled, bailed, inlined int
	for i, p := range progs {
		var st harness.RunnerJITStats
		var err error
		b.tr.timed("jit.runner", p.Name, root, 0, int64(i), func() {
			var r harness.Runner
			if r, err = harness.NewRunner(harness.SafeSulongPerf, p.Source, p.SmallArg); err != nil {
				return
			}
			defer r.Close()
			for it := 0; it < 3 && err == nil; it++ {
				err = r.RunIteration()
			}
			st = r.JITStats()
		})
		if err != nil {
			return fmt.Errorf("probe jit %s: %w", p.Name, err)
		}
		compiled += st.Compiled
		bailed += st.Bailed
		inlined += st.Inlined
	}
	b.setLayer("jit.compiled", float64(compiled), "count")
	b.setLayer("jit.bailed", float64(bailed), "count")
	b.setLayer("jit.inlined", float64(inlined), "count")
	return nil
}

// probeNative times machine construction and a run of each probe program
// on the native machine, under ASan and under memcheck. Programs that fault
// under any of the three are left out of all three sums, so the overhead
// ratios compare the same work.
func (b *bench) probeNative(progs []benchprog.Benchmark, root int) error {
	engines := []struct {
		eng  sulong.Engine
		span string
	}{{sulong.EngineNative, "nativevm.run"}, {sulong.EngineASan, "asan.run"}, {sulong.EngineMemcheck, "memcheck.run"}}
	sums := make([]float64, len(engines))
	for i, p := range progs {
		mod, err := sulong.CompileNative(p.Source, 0)
		if err != nil {
			return err
		}
		runs := make([]float64, len(engines))
		faulted := false
		for k, e := range engines {
			ncfg, err := sulong.NativeConfig(e.eng)
			if err != nil {
				return err
			}
			ncfg.Args, ncfg.Stdout = []string{p.SmallArg}, io.Discard
			var m *nativevm.Machine
			b.tr.timed("nativevm.new", e.eng.String(), root, 0, int64(i), func() { m, err = nativevm.New(mod, ncfg) })
			if err != nil {
				return err
			}
			var ds []float64
			for r := 0; r < 3 && !faulted; r++ {
				var rerr error
				d := b.tr.timed(e.span, p.Name, root, 0, int64(i), func() { _, rerr = m.Run() })
				faulted = rerr != nil
				ds = append(ds, ms(d))
			}
			runs[k] = median(ds)
		}
		if faulted {
			continue
		}
		for k := range engines {
			sums[k] += runs[k]
		}
	}
	b.setLayer("nativevm.run_ms", sums[0], "ms")
	b.setLayer("asan.run_ms", sums[1], "ms")
	b.setLayer("memcheck.run_ms", sums[2], "ms")
	if sums[0] > 0 {
		b.setLayer("asan.overhead", sums[1]/sums[0], "ratio")
		b.setLayer("memcheck.overhead", sums[2]/sums[0], "ratio")
	}
	return nil
}

// probeHarness runs one detection-matrix pass cell by cell on the
// benchmark's workers, timing each harness.RunCaseWith call.
func (b *bench) probeHarness(root int) {
	cases, tools := corpus.All(), harness.Tools()
	n := len(cases) * len(tools)
	var next atomic.Int64
	var busy atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				c, tool := cases[i/len(tools)], tools[i%len(tools)]
				d := b.tr.timed("harness.run_case", c.Name+"/"+tool.String(), root, w, int64(i), func() {
					harness.RunCaseWith(c, tool, harness.CaseBudget{})
				})
				busy.Add(int64(d))
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(t0)
	b.setLayer("harness.busy_frac", float64(busy.Load())/(float64(b.workers)*float64(wall)), "frac")
}

// probeStream is the plan stream the campaign probe judges: not the
// workload's, so no earlier run in the process has left its modules cached.
const probeStream = 1

// probeCampaign times the generator and measures what the minimizer costs:
// a planned campaign with one blind spot, judged with the minimizer on and
// with it off.
func (b *bench) probeCampaign(root int) error {
	for i := 0; i < 200; i++ {
		s := gen.SeedAt(b.seed, i)
		b.tr.timed("gen.generate", "", root, 0, int64(i), func() { gen.Generate(s) })
	}
	p, err := planCampaign(b.seed, probeStream, 1)
	if err != nil {
		return err
	}
	var on, off *campaign.Result
	dOn := b.tr.timed("campaign.minimize_on", "", root, 0, 0, func() {
		on, err = campaign.Run(campaign.Options{Seed: p.Root, Programs: p.Programs, Workers: b.workers})
	})
	if err != nil {
		return err
	}
	dOff := b.tr.timed("campaign.minimize_off", "", root, 0, 0, func() {
		off, err = campaign.Run(campaign.Options{Seed: p.Root, Programs: p.Programs, Workers: b.workers, MinimizeBudget: -1})
	})
	if err != nil {
		return err
	}
	if len(on.Findings) != len(off.Findings) {
		b.correct = false
	}
	b.setLayer("campaign.findings", float64(len(on.Findings)), "count")
	b.setLayer("campaign.minimize_s", (dOn - dOff).Seconds(), "s")
	return nil
}
