package main

import (
	"fmt"
	"io/fs"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	sulong "repro"
	"repro/internal/benchprog"
	"repro/internal/harness"
	"repro/internal/ir"
)

// peakPrograms are Fig. 16's programs in this workload: nbody is bound by
// float loads and stores, binarytrees by allocation, fannkuchredux and
// mandelbrot by integer compute.
var peakPrograms = []string{"nbody", "binarytrees", "fannkuchredux", "mandelbrot"}

// peakEngines are the measured configurations, each with its metric key.
var peakEngines = []struct {
	key string
	cfg harness.PerfConfig
	run sulong.Config // the same engine for the output check
}{
	{"native", harness.ClangO0, sulong.Config{Engine: sulong.EngineNative}},
	{"asan", harness.ASanPerf, sulong.Config{Engine: sulong.EngineASan}},
	{"memcheck", harness.ValgrindPerf, sulong.Config{Engine: sulong.EngineMemcheck}},
	{"sulong", harness.SafeSulongPerf, sulong.Config{Engine: sulong.EngineSafeSulong, JIT: true}},
}

// knownFaults are the cells that fault at baseline; README.md records the
// defect. Any other failing cell makes the run incorrect.
var knownFaults = map[string]bool{
	"fannkuchredux/native": true, "fannkuchredux/asan": true, "fannkuchredux/memcheck": true,
	"mandelbrot/asan": true,
}

// peakRoundSeconds sizes the window: it runs --seconds / peakRoundSeconds
// whole rounds, at least one. A round over the twelve passing cells takes
// 8 to 15 s on a 2-vCPU machine, depending on what else the host runs.
const peakRoundSeconds = 10

func peakRounds(window time.Duration) int {
	return max(1, int(window/(peakRoundSeconds*time.Second)))
}

// startupRuns is how many hello-world start-ups the peak workload times.
const startupRuns = 41

// peakCell is one program under one engine.
type peakCell struct {
	name   string
	prog   benchprog.Benchmark
	engine int // index into peakEngines
	ref    string

	runner harness.Runner
	ok     bool
	times  []float64 // ms per timed iteration
}

// runPeak is the peak workload. Start-up time is measured first; then every
// cell's runner is built in set-up, each output is checked once against the
// gcc reference and each runner warmed up by one iteration (both on the
// benchmark's workers), then timed iterations run until the window closes.
func runPeak(b *bench) error {
	var cells []*peakCell
	for _, name := range peakPrograms {
		p, err := benchprog.Get(name)
		if err != nil {
			return err
		}
		ref, err := fs.ReadFile(b.refs, "peak/"+name+".out")
		if err != nil {
			return err
		}
		for e := range peakEngines {
			cells = append(cells, &peakCell{name: name + "/" + peakEngines[e].key, prog: p, engine: e, ref: string(ref)})
		}
	}
	// The seed rotates the fixed cell order.
	rot := int(splitmix64(b.seed) % uint64(len(cells)))
	cells = append(cells[rot:], cells[:rot]...)
	order := make([]string, len(cells))
	for i, c := range cells {
		order[i] = c.name
	}
	b.meta["cell_order"] = order

	// Start-up first, while the process is as fresh as a tool launch.
	startup, err := b.startup()
	if err != nil {
		return err
	}
	b.meta["startup_ms"] = startup

	closeRunners := func() {
		for _, c := range cells {
			if c.runner != nil {
				c.runner.Close()
				c.runner = nil
			}
		}
	}
	defer closeRunners()

	// Set-up: compile every program and build every runner from empty
	// caches. Each repetition's runners are closed before the next starts;
	// the last repetition's are the ones timed.
	setup, err := b.timeSetups(closeRunners, func(rep int) error {
		for i, c := range cells {
			id := b.tr.begin("harness.new_runner", c.name, -1, 0, int64(i))
			r, err := harness.NewRunner(peakEngines[c.engine].cfg, c.prog.Source, c.prog.DefaultArg)
			b.tr.end(id)
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			c.runner = r
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.setE2E("setup_s", setup, "s")

	// Check every cell's output once, then warm each passing runner up;
	// neither is timed.
	b.forCells(cells, func(w int, c *peakCell) {
		cfg := peakEngines[c.engine].run
		cfg.Args = []string{c.prog.DefaultArg}
		var res sulong.Result
		var err error
		b.tr.timed("sulong.run", c.name, -1, w, 0, func() { res, err = sulong.Run(c.prog.Source, cfg) })
		c.ok = err == nil && res.Bug == nil && res.Fault == nil && res.ExitCode == 0 && res.Stdout == c.ref
		if c.ok {
			c.ok = c.runner.RunIteration() == nil
		}
	})

	// Timed iterations run one at a time, in whole rounds over the fixed
	// cell order, so every cell gets the same number of samples and a
	// cell's time does not depend on which other cell shares the machine.
	// The window is a number of rounds, so the samples per cell, and the
	// heap binarytrees leaves behind, do not depend on the machine's speed.
	// A collection before each iteration starts it from the same heap
	// state; the garbage the iteration makes is still collected within it.
	w := openWindow()
	iters := 0
	for round := 0; round < peakRounds(b.window); round++ {
		for _, c := range cells {
			if !c.ok {
				continue
			}
			runtime.GC()
			var err error
			d := b.tr.timed("harness.run_iteration", c.name, -1, 0, int64(round), func() { err = c.runner.RunIteration() })
			if err != nil {
				c.ok = false
				continue
			}
			c.times = append(c.times, ms(d))
			iters++
		}
	}
	secs := w.close(b, iters)
	b.meta["window_s"] = secs
	b.meta["iterations"] = iters

	failing := []string{}
	for _, c := range cells {
		b.op(c.ok)
		if !c.ok {
			failing = append(failing, c.name)
			if !knownFaults[c.name] {
				b.correct = false
			}
		}
	}
	b.meta["failing_cells"] = failing
	// ops_per_s is timed iterations per second at each passing cell's
	// median speed: the passing cells over the sum of their median
	// iteration times. Per engine, the geometric mean over programs of the
	// median iteration goes into the metadata.
	sumMS, n := 0.0, 0
	peakMS := map[string]float64{}
	for e, eng := range peakEngines {
		var meds []float64
		for _, c := range cells {
			if c.engine == e && c.ok && len(c.times) > 0 {
				meds = append(meds, median(c.times))
				sumMS += median(c.times)
				n++
			}
		}
		peakMS[eng.key] = geomean(meds)
	}
	b.meta["peak_ms"] = peakMS
	if sumMS == 0 {
		return fmt.Errorf("peak: no cell ran")
	}
	b.setE2E("ops_per_s", float64(n)/(sumMS/1000), "1/s")
	samples := map[string][]float64{}
	for _, c := range cells {
		samples[c.name] = c.times
	}
	b.meta["cell_ms"] = samples

	closeRunners()
	b.setE2E("mem_live_mb", liveHeapMB(), "MB")
	b.meta["ok_frac"] = b.okFrac()
	return nil
}

// forCells runs fn over the cells on the benchmark's workers.
func (b *bench) forCells(cells []*peakCell, fn func(w int, c *peakCell)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < b.workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(cells); i = int(next.Add(1) - 1) {
				fn(wk, cells[i])
			}
		}(wk)
	}
	wg.Wait()
}

// startup times Safe Sulong's hello world from source (§4.2): an uncached
// compile of libc plus the program, then the run. It returns the median in
// ms; each run's output is checked.
func (b *bench) startup() (float64, error) {
	var times []float64
	for i := 0; i < startupRuns; i++ {
		var res sulong.Result
		runtime.GC()
		root := b.tr.begin("startup", "", -1, 0, int64(i))
		t0 := time.Now()
		var mod *ir.Module
		var err error
		b.tr.timed("sulong.compile_for", "", root, 0, int64(i), func() {
			mod, err = sulong.CompileFor(helloSrc, sulong.Config{Engine: sulong.EngineSafeSulong, NoCache: true})
		})
		if err == nil {
			b.tr.timed("sulong.run_module", "", root, 0, int64(i), func() {
				res, err = sulong.RunModule(mod, sulong.Config{Engine: sulong.EngineSafeSulong})
			})
		}
		d := time.Since(t0)
		b.tr.end(root)
		if err != nil {
			return 0, fmt.Errorf("startup: %w", err)
		}
		ok := res.Stdout == "Hello, World!\n" && res.ExitCode == 0
		if !ok {
			b.correct = false
		}
		b.op(ok)
		times = append(times, ms(d))
	}
	return median(times), nil
}
