// Command perfbench reproduces the paper's performance evaluation:
// §4.2 start-up and warm-up (Fig. 15) and §4.3 peak performance (Fig. 16),
// plus pipeline-level measurements of this repository's own machinery: the
// corpus-matrix wall clock under the parallel evaluation driver and the
// content-addressed module cache's hit rate.
//
// Usage:
//
//	perfbench -startup                 # hello-world start-up per tool
//	perfbench -warmup [-bench meteor]  # Fig. 15 iterations/s over time
//	perfbench -peak [-bench all]       # Fig. 16 relative execution times
//	perfbench -peak -warmups 50 -samples 10 -full   # paper-sized runs
//	perfbench -matrix [-parallel N]    # corpus-matrix wall clock, serial vs parallel
//	perfbench -matrix -timeout 5s      # with a per-cell wall-clock deadline
//	perfbench ... -json out.json       # machine-readable report (cache stats included)
//	perfbench -throughput BENCH_PR10.json  # cold-vs-warm throughput for the
//	                                   # matrix/sweep/campaign drivers: one pass
//	                                   # with every process cache reset and the
//	                                   # code cache opted out, one pass warm,
//	                                   # with per-cell latency percentiles
//	perfbench -record BENCH_PR6.json   # the tiering benchmark protocol: startup,
//	                                   # per-second warm-up timelines (iterations
//	                                   # plus cumulative compile/OSR/deopt events)
//	                                   # for the interpreter, synchronous tier-2,
//	                                   # async tier-2, and async+OSR, and peak
//	                                   # rows for every managed ablation with the
//	                                   # compiler's bail-out and inline counters
//
// The recorded warm-up runs force a deliberately high tier-up threshold so
// compilation is *visible* in the timeline: events land across several
// one-second buckets instead of disappearing into bucket 1, and the
// time-to-peak column shows what background compilation and on-stack
// replacement buy during those seconds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	sulong "repro"
	"repro/internal/benchprog"
	"repro/internal/campaign"
	"repro/internal/harness"
)

// report is the machine-readable output of a perfbench invocation. Every
// section is optional (filled only when the matching mode ran); the cache
// section is always present.
type report struct {
	Startup []startupEntry `json:"startup,omitempty"`
	Peak    []peakEntry    `json:"peak,omitempty"`
	Matrix  *matrixEntry   `json:"matrix,omitempty"`
	// Caches reports every process-wide cache (pipeline module cache,
	// executable-code cache) with key-sorted fields.
	Caches harness.CacheReport `json:"caches"`
}

type startupEntry struct {
	Tool   string  `json:"tool"`
	TimeMs float64 `json:"timeMs"`
}

type peakEntry struct {
	Bench    string             `json:"bench"`
	TimesMs  map[string]float64 `json:"timesMs"`
	Relative map[string]float64 `json:"relativeToClangO0"`
}

type matrixEntry struct {
	Cases               int     `json:"cases"`
	Workers             int     `json:"workers"`
	SerialWallClockMs   float64 `json:"serialWallClockMs"`
	ParallelWallClockMs float64 `json:"parallelWallClockMs"`
	Speedup             float64 `json:"speedup"`
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func main() {
	startup := flag.Bool("startup", false, "measure start-up time (§4.2)")
	warmup := flag.Bool("warmup", false, "measure warm-up behaviour (Fig. 15)")
	peak := flag.Bool("peak", false, "measure peak performance (Fig. 16)")
	matrix := flag.Bool("matrix", false, "measure corpus-matrix wall clock, serial vs parallel")
	benchName := flag.String("bench", "", "benchmark name (default: meteor for -warmup, all for -peak)")
	warmups := flag.Int("warmups", 10, "in-process warm-up iterations before sampling")
	samples := flag.Int("samples", 5, "timed iterations per configuration")
	seconds := flag.Float64("seconds", 10, "wall-clock duration of the warm-up experiment")
	full := flag.Bool("full", false, "use the paper-sized workloads (slower)")
	parallel := flag.Int("parallel", 0, "matrix worker count (0 = one per CPU)")
	cellTimeout := flag.Duration("timeout", 0, "per-cell wall-clock deadline for -matrix (0 = none)")
	maxSteps := flag.Int64("maxsteps", 0, "per-cell step budget for -matrix (0 = harness default)")
	jsonOut := flag.String("json", "", "write a machine-readable report to this file")
	record := flag.String("record", "", "record the tiering benchmark baseline to this file (BENCH_PR6.json protocol)")
	throughput := flag.String("throughput", "", "record cold-vs-warm driver throughput to this file (BENCH_PR10.json protocol)")
	flag.Parse()

	if *record != "" {
		recordBaseline(*record, *warmups, *samples)
		return
	}
	if *throughput != "" {
		recordThroughput(*throughput)
		return
	}

	if !*startup && !*warmup && !*peak && !*matrix {
		fmt.Fprintln(os.Stderr, "usage: perfbench -startup | -warmup | -peak | -matrix [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var rep report

	if *startup {
		results, err := harness.MeasureStartup(10)
		check(err)
		fmt.Println("Start-up time, hello world (average of 10 runs):")
		for _, r := range results {
			fmt.Printf("  %-14v %v\n", r.Tool, r.Time)
			rep.Startup = append(rep.Startup, startupEntry{Tool: r.Tool.String(), TimeMs: ms(r.Time)})
		}
	}

	if *warmup {
		name := *benchName
		if name == "" {
			name = "meteor"
		}
		b, err := benchprog.Get(name)
		check(err)
		arg := b.SmallArg
		if *full {
			arg = b.DefaultArg
		}
		fmt.Printf("Warm-up on %s (arg %s), %gs window, 1s buckets (Fig. 15):\n", name, arg, *seconds)
		cfgs := []harness.PerfConfig{harness.SafeSulongPerf, harness.ASanPerf, harness.ValgrindPerf}
		out, err := harness.MeasureWarmup(b, arg, time.Duration(*seconds*float64(time.Second)), time.Second, cfgs)
		check(err)
		for _, cfg := range cfgs {
			fmt.Printf("  %v:\n", cfg)
			for _, s := range out[cfg] {
				marker := ""
				if cfg == harness.SafeSulongPerf {
					marker = fmt.Sprintf("  (compiled ASTs: %d)", s.Compiled)
				}
				fmt.Printf("    second %2d: %4d iterations%s\n", s.Bucket+1, s.Iterations, marker)
			}
		}
	}

	if *peak {
		var benches []benchprog.Benchmark
		if *benchName == "" || *benchName == "all" {
			benches = benchprog.All()
		} else {
			b, err := benchprog.Get(*benchName)
			check(err)
			benches = []benchprog.Benchmark{b}
		}
		fmt.Printf("Peak performance relative to Clang -O0 (Fig. 16), %d warm-ups, %d samples:\n",
			*warmups, *samples)
		var rows []harness.PeakResult
		for _, b := range benches {
			arg := b.SmallArg
			if *full {
				arg = b.DefaultArg
			}
			row, err := harness.MeasurePeak(b, arg, *warmups, *samples, harness.PerfConfigs())
			check(err)
			rows = append(rows, row)
			note := ""
			if b.AllocHeavy {
				note = "   <- allocation-intensive (§4.3's binarytrees discussion)"
			}
			fmt.Printf("  %s done%s\n", b.Name, note)
		}
		fmt.Println()
		fmt.Print(harness.RenderPeak(rows, harness.PerfConfigs()))
		for _, row := range rows {
			pe := peakEntry{Bench: row.Bench, TimesMs: map[string]float64{}, Relative: map[string]float64{}}
			for _, cfg := range harness.PerfConfigs() {
				pe.TimesMs[cfg.String()] = ms(row.Times[cfg])
				pe.Relative[cfg.String()] = row.Relative(cfg)
			}
			rep.Peak = append(rep.Peak, pe)
		}
	}

	if *matrix {
		workers := *parallel
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		// Warm the module cache off the clock, then time the matrix serial
		// vs parallel: with compilation amortized, the remaining cost is
		// execution, which scales with the worker count.
		fmt.Printf("Corpus-matrix wall clock (cache warm, %d cases x %d tools):\n",
			len(harness.RunDetectionMatrix().Cases), len(harness.Tools()))
		t0 := time.Now()
		serial := harness.RunDetectionMatrixWith(harness.MatrixOptions{
			Workers: 1, MaxSteps: *maxSteps, CaseTimeout: *cellTimeout,
		})
		serialDur := time.Since(t0)
		t0 = time.Now()
		par := harness.RunDetectionMatrixWith(harness.MatrixOptions{
			Workers: workers, MaxSteps: *maxSteps, CaseTimeout: *cellTimeout,
		})
		parDur := time.Since(t0)
		if serial.Render() != par.Render() {
			fmt.Fprintln(os.Stderr, "perfbench: serial and parallel matrices disagree")
			os.Exit(1)
		}
		speedup := float64(serialDur) / float64(parDur)
		fmt.Printf("  serial   (1 worker)   %v\n", serialDur.Round(time.Millisecond))
		fmt.Printf("  parallel (%d workers) %v  (%.2fx)\n", workers, parDur.Round(time.Millisecond), speedup)
		rep.Matrix = &matrixEntry{
			Cases:               len(par.Cases),
			Workers:             workers,
			SerialWallClockMs:   ms(serialDur),
			ParallelWallClockMs: ms(parDur),
			Speedup:             speedup,
		}
	}

	rep.Caches = harness.Caches()
	pc, cc := rep.Caches.Pipeline, rep.Caches.CodeCache
	fmt.Printf("\nmodule cache: %d hits / %d misses (%.0f%% hit rate), %d entries\n",
		pc.Hits, pc.Misses, 100*pc.HitRate, pc.Entries)
	fmt.Printf("code cache:   %d hits / %d misses, %d evictions, %d units (%d funcs)\n",
		cc.Hits, cc.Misses, cc.Evictions, cc.Units, cc.Funcs)

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		check(err)
		check(os.WriteFile(*jsonOut, append(data, '\n'), 0o644))
		fmt.Printf("report written to %s\n", *jsonOut)
	}
}

// ---- the tiering benchmark protocol (-record) ----

// baselineReport is the committed BENCH_PR6.json schema: one startup row per
// tool, a per-configuration warm-up timeline (per-second iterations plus
// cumulative compile/OSR/deopt events), and a peak row per benchmark per
// managed ablation, with the compiler's own counters so a silent bail-out
// (which would make a "tier-2" row secretly interpreted) is visible in the
// record itself. It extends the PR 5 protocol; BENCH_PR5.json remains
// committed under its own schema.
type baselineReport struct {
	Schema     string          `json:"schema"`
	RecordedAt string          `json:"recorded_at"`
	Warmups    int             `json:"warmups"`
	Samples    int             `json:"samples"`
	Startup    []startupEntry  `json:"startup"`
	Warmup     []warmupCurve   `json:"warmup"`
	Benches    []baselineBench `json:"benches"`
	Summary    baselineSummary `json:"summary"`
}

// warmupCurve is one configuration's Fig. 15 timeline. TimeToPeakSec is the
// first one-second bucket whose iteration rate reaches 90% of the curve's
// best bucket — the warm-up cost in wall-clock seconds.
type warmupCurve struct {
	Config         string        `json:"config"`
	Tier1Threshold int64         `json:"tier1_threshold,omitempty"`
	OSRThreshold   int64         `json:"osr_threshold,omitempty"`
	Rows           []timelineRow `json:"rows"`
	PeakItersPerS  int           `json:"peak_iterations_per_sec"`
	TimeToPeakSec  int           `json:"time_to_peak_sec"`
}

// timelineRow is one second of a warm-up curve. The event counters are
// cumulative at bucket end, so a row whose Compiled exceeds the previous
// row's records compilation landing *in* that second.
type timelineRow struct {
	Second      int `json:"second"`
	Iterations  int `json:"iterations"`
	Compiled    int `json:"compiled"`
	OSRCompiled int `json:"osr_compiled"`
	OSREntries  int `json:"osr_entries"`
	Deopts      int `json:"deopts"`
}

type baselineBench struct {
	Bench              string        `json:"bench"`
	AllocHeavy         bool          `json:"alloc_heavy"`
	Rows               []baselineRow `json:"rows"`
	Tier2SpeedupVsBase float64       `json:"tier2_speedup_vs_baseline"`
}

type baselineRow struct {
	Config    string                  `json:"config"`
	TimeMs    float64                 `json:"time_ms"`
	VsClangO0 float64                 `json:"vs_clang_o0"`
	JIT       *harness.RunnerJITStats `json:"jit,omitempty"`
}

type baselineSummary struct {
	TargetSpeedup              float64 `json:"target_speedup"`
	ComputeBoundGeomeanSpeedup float64 `json:"compute_bound_geomean_speedup"`
	ComputeBoundMinSpeedup     float64 `json:"compute_bound_min_speedup"`
	MetTarget                  bool    `json:"met_target"`
	// Warm-up comparison under the forced-high tier-up threshold: seconds to
	// reach 90% of peak rate with synchronous tier-up vs async+OSR.
	TimeToPeakSyncSec     int  `json:"time_to_peak_sync_sec"`
	TimeToPeakAsyncOSRSec int  `json:"time_to_peak_async_osr_sec"`
	AsyncOSRWarmsUpFaster bool `json:"async_osr_warms_up_faster"`
}

// pr6WarmupThreshold is the deliberately high tier-up threshold for the
// recorded warm-up timelines. At the historical threshold of 25 every
// compilation lands inside the first one-second bucket and the timeline is
// flat — meteor's hot functions see thousands of calls per second, so even
// a few hundred calls cross almost immediately. At 50000 calls the entry
// compilations spread across the first several one-second buckets, so the
// curves actually show the difference between waiting for call counts
// (synchronous and plain async tier-up) and entering hot loops
// mid-iteration via OSR, whose back-edge threshold is independent of the
// call threshold.
const pr6WarmupThreshold = 50000

// pr6WarmupWindow bounds each warm-up timeline capture.
const pr6WarmupWindow = 6 * time.Second

// recordBaseline runs the full protocol and writes the report. The managed
// ablations are: tier-0 only (no JIT), the pre-tier-2 compiler (baseline),
// tier-2 with the inliner off, the full tier-2 peak layer with synchronous
// tier-up, background (async) tier-up, and async tier-up with on-stack
// replacement; Clang -O0 anchors the relative column.
func recordBaseline(path string, warmups, samples int) {
	// The protocol's floor: every hot function must cross the tier-1 compile
	// threshold (25 calls) during warm-up, or the "baseline"/"tier-2" rows
	// silently measure the interpreter. 30 warm-ups and 15 samples are the
	// recorded-baseline minimums; -warmups/-samples can only raise them.
	if warmups < 30 {
		warmups = 30
	}
	if samples < 15 {
		samples = 15
	}
	cfgs := []harness.PerfConfig{
		harness.ClangO0,
		harness.SafeSulongNoJIT,
		harness.SafeSulongBaseline,
		harness.SafeSulongNoInline,
		harness.SafeSulongPerf,
		harness.SafeSulongAsync,
		harness.SafeSulongAsyncOSR,
	}
	rep := baselineReport{
		Schema:     "sulong-bench/pr6",
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
		Warmups:    warmups,
		Samples:    samples,
	}

	fmt.Println("Recording tiering benchmark baseline...")
	fmt.Println("  start-up (hello world, average of 10 runs)")
	st, err := harness.MeasureStartup(10)
	check(err)
	for _, r := range st {
		rep.Startup = append(rep.Startup, startupEntry{Tool: r.Tool.String(), TimeMs: ms(r.Time)})
	}

	wb, err := benchprog.Get("meteor")
	check(err)
	warmupCfgs := []harness.PerfConfig{
		harness.ClangO0,
		harness.SafeSulongNoJIT,
		harness.SafeSulongPerf,
		harness.SafeSulongAsync,
		harness.SafeSulongAsyncOSR,
	}
	wopts := harness.RunnerOptions{Tier1Threshold: pr6WarmupThreshold}
	for _, cfg := range warmupCfgs {
		fmt.Printf("  warm-up timeline: %v (meteor, %v window)\n", cfg, pr6WarmupWindow)
		wu, err := harness.MeasureWarmupOpts(wb, wb.SmallArg, pr6WarmupWindow, time.Second,
			[]harness.PerfConfig{cfg}, wopts)
		check(err)
		rep.Warmup = append(rep.Warmup, makeCurve(cfg, wu[cfg]))
	}

	var rows []harness.PeakResult
	var speedups []float64
	minSpeedup := math.Inf(1)
	for _, b := range benchprog.All() {
		fmt.Printf("  peak: %s\n", b.Name)
		row, err := harness.MeasurePeak(b, b.SmallArg, warmups, samples, cfgs)
		check(err)
		rows = append(rows, row)
		bb := baselineBench{Bench: b.Name, AllocHeavy: b.AllocHeavy}
		for _, cfg := range cfgs {
			br := baselineRow{
				Config:    cfg.String(),
				TimeMs:    ms(row.Times[cfg]),
				VsClangO0: row.Relative(cfg),
			}
			if js, ok := row.JIT[cfg]; ok {
				js := js
				br.JIT = &js
			}
			bb.Rows = append(bb.Rows, br)
		}
		base := row.Times[harness.SafeSulongBaseline]
		tier2 := row.Times[harness.SafeSulongPerf]
		if tier2 > 0 {
			bb.Tier2SpeedupVsBase = float64(base) / float64(tier2)
		}
		if !b.AllocHeavy && bb.Tier2SpeedupVsBase > 0 {
			speedups = append(speedups, bb.Tier2SpeedupVsBase)
			if bb.Tier2SpeedupVsBase < minSpeedup {
				minSpeedup = bb.Tier2SpeedupVsBase
			}
		}
		rep.Benches = append(rep.Benches, bb)
	}

	logSum := 0.0
	for _, s := range speedups {
		logSum += math.Log(s)
	}
	geomean := 0.0
	if len(speedups) > 0 {
		geomean = math.Exp(logSum / float64(len(speedups)))
	}
	syncPeak := curveTimeToPeak(rep.Warmup, harness.SafeSulongPerf.String())
	osrPeak := curveTimeToPeak(rep.Warmup, harness.SafeSulongAsyncOSR.String())
	rep.Summary = baselineSummary{
		TargetSpeedup:              1.5,
		ComputeBoundGeomeanSpeedup: geomean,
		ComputeBoundMinSpeedup:     minSpeedup,
		MetTarget:                  geomean >= 1.5,
		TimeToPeakSyncSec:          syncPeak,
		TimeToPeakAsyncOSRSec:      osrPeak,
		AsyncOSRWarmsUpFaster:      osrPeak < syncPeak,
	}

	fmt.Println()
	fmt.Print(harness.RenderPeak(rows, cfgs))
	fmt.Printf("\ntier-2 vs baseline tier-1, compute-bound benchmarks: geomean %.2fx, min %.2fx (target 1.5x: %v)\n",
		geomean, minSpeedup, rep.Summary.MetTarget)
	fmt.Printf("time to 90%%-of-peak at tier-up threshold %d: sync %ds, async+OSR %ds\n",
		pr6WarmupThreshold, syncPeak, osrPeak)

	data, err := json.MarshalIndent(rep, "", "  ")
	check(err)
	check(os.WriteFile(path, append(data, '\n'), 0o644))
	fmt.Printf("baseline recorded to %s\n", path)
	if !rep.Summary.MetTarget {
		fmt.Fprintln(os.Stderr, "perfbench: tier-2 speedup target not met")
		os.Exit(1)
	}
}

// makeCurve converts one configuration's warm-up samples into the recorded
// timeline: per-second rows plus the 90%-of-peak warm-up time. The trailing
// sample covers a partial bucket (the capture window rarely ends on a bucket
// boundary), so it is kept in the rows but excluded from rate analysis.
func makeCurve(cfg harness.PerfConfig, samples []harness.WarmupSample) warmupCurve {
	c := warmupCurve{Config: cfg.String()}
	switch cfg {
	case harness.SafeSulongPerf, harness.SafeSulongAsync, harness.SafeSulongAsyncOSR:
		c.Tier1Threshold = pr6WarmupThreshold
	}
	if cfg == harness.SafeSulongAsyncOSR {
		c.OSRThreshold = sulong.DefaultOSRThreshold
	}
	for _, s := range samples {
		c.Rows = append(c.Rows, timelineRow{
			Second:      s.Bucket + 1,
			Iterations:  s.Iterations,
			Compiled:    s.Compiled,
			OSRCompiled: s.OSRCompiled,
			OSREntries:  s.OSREntries,
			Deopts:      s.Deopts,
		})
	}
	full := c.Rows
	if len(full) > 1 {
		full = full[:len(full)-1]
	}
	for _, r := range full {
		if r.Iterations > c.PeakItersPerS {
			c.PeakItersPerS = r.Iterations
		}
	}
	for _, r := range full {
		if r.Iterations*10 >= c.PeakItersPerS*9 {
			c.TimeToPeakSec = r.Second
			break
		}
	}
	return c
}

// ---- the compile-once/run-many throughput protocol (-throughput) ----

// throughputReport is the committed BENCH_PR10.json schema: cold-vs-warm
// rows for the drivers that re-run the corpus (the detection matrix plain
// and with the tier-1 compiler forced hot, the FailNth fault sweep) plus a
// fixed-seed 500-program campaign, and a summary holding the warm-cache
// speedup geomean against its target. "Cold" bypasses every process-wide
// cache — pipeline module cache and executable-code cache — so each cell
// compiles from source, the compile-every-time execution model. "Warm" runs with the caches primed by
// one untimed pass, which is how every long-lived driver actually runs.
type throughputReport struct {
	Schema     string            `json:"schema"`
	RecordedAt string            `json:"recorded_at"`
	Workers    int               `json:"workers"`
	Rows       []throughputRow   `json:"rows"`
	Summary    throughputSummary `json:"summary"`
}

// throughputRow is one (driver, mode) measurement. Units are matrix/sweep
// cells or campaign programs; the cell-latency percentiles come from a
// separate single-worker pass whose inter-cell deltas are exact per-cell
// durations (omitted for the campaign, whose per-seed latency is already
// its throughput's reciprocal).
type throughputRow struct {
	Driver      string  `json:"driver"`
	Mode        string  `json:"mode"` // "cold" or "warm"
	Units       int     `json:"units"`
	WallClockMs float64 `json:"wall_clock_ms"`
	UnitsPerSec float64 `json:"units_per_sec"`
	P50CellMs   float64 `json:"p50_cell_ms,omitempty"`
	P99CellMs   float64 `json:"p99_cell_ms,omitempty"`
}

type throughputSummary struct {
	TargetWarmSpeedup          float64 `json:"target_warm_speedup"`
	MatrixGeomeanWarmSpeedup   float64 `json:"matrix_geomean_warm_speedup"`
	MetTarget                  bool    `json:"met_target"`
	CampaignProgramsPerSecCold float64 `json:"campaign_programs_per_sec_cold"`
	CampaignProgramsPerSecWarm float64 `json:"campaign_programs_per_sec_warm"`
}

// throughputCampaignSeed fixes the recorded campaign so cold and warm judge
// the identical 500 programs.
const throughputCampaignSeed = 0x10C0DE

// resetProcessCaches empties the pipeline module cache and the
// executable-code cache: the next run pays full front-end and back-end cost.
func resetProcessCaches() {
	sulong.ResetCache()
	sulong.ResetCodeCache()
}

// driverRun executes one driver pass: cold is the fully cold-compile
// baseline (module cache and code cache both bypassed — every cell
// compiles from source), w is the
// worker count, and lat (when non-nil) collects per-cell durations —
// callers pass it only with w == 1, where inter-progress deltas are exact.
// Returns the number of units completed.
type driverRun func(cold bool, w int, lat *[]time.Duration) int

func latProgress(lat *[]time.Duration) func(done, total int) {
	last := time.Now()
	return func(done, total int) {
		now := time.Now()
		*lat = append(*lat, now.Sub(last))
		last = now
	}
}

func percentileMs(lat []time.Duration, pct int) float64 {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := len(sorted) * pct / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return ms(sorted[idx])
}

// measureDriver produces the cold and warm rows for one driver. The timed
// parallel pass gives throughput; an additional single-worker pass (same
// cache state) gives the latency percentiles.
func measureDriver(name string, workers int, withLat bool, run driverRun) (cold, warm throughputRow) {
	row := func(mode string, units int, d time.Duration, lat []time.Duration) throughputRow {
		r := throughputRow{
			Driver: name, Mode: mode, Units: units, WallClockMs: ms(d),
			UnitsPerSec: float64(units) / d.Seconds(),
		}
		if withLat {
			r.P50CellMs = percentileMs(lat, 50)
			r.P99CellMs = percentileMs(lat, 99)
		}
		return r
	}

	fmt.Printf("  %s: cold...", name)
	resetProcessCaches()
	t0 := time.Now()
	units := run(true, workers, nil)
	coldDur := time.Since(t0)
	var coldLat []time.Duration
	if withLat {
		resetProcessCaches()
		run(true, 1, &coldLat)
	}
	cold = row("cold", units, coldDur, coldLat)

	fmt.Printf(" warm...")
	resetProcessCaches()
	run(false, workers, nil) // untimed priming pass fills every cache
	t0 = time.Now()
	units = run(false, workers, nil)
	warmDur := time.Since(t0)
	var warmLat []time.Duration
	if withLat {
		run(false, 1, &warmLat)
	}
	warm = row("warm", units, warmDur, warmLat)
	fmt.Printf(" %.2fx (%v -> %v)\n", float64(coldDur)/float64(warmDur),
		coldDur.Round(time.Millisecond), warmDur.Round(time.Millisecond))
	return cold, warm
}

// recordThroughput runs the full cold-vs-warm protocol and writes
// BENCH_PR10.json. Exit status 1 when the warm-cache matrix speedup misses
// its 3x target.
func recordThroughput(path string) {
	workers := runtime.GOMAXPROCS(0)
	rep := throughputReport{
		Schema:     "sulong-bench/pr10",
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
		Workers:    workers,
	}
	fmt.Println("Recording compile-once/run-many throughput baseline...")

	matrixRun := func(jit bool) driverRun {
		return func(cold bool, w int, lat *[]time.Duration) int {
			opts := harness.MatrixOptions{Workers: w, NoCodeCache: cold, NoCache: cold}
			if jit {
				opts.JIT = true
				opts.JITThreshold = 1
			}
			if lat != nil {
				opts.Progress = latProgress(lat)
			}
			m := harness.RunDetectionMatrixWith(opts)
			return len(m.Cases) * len(harness.Tools())
		}
	}
	sweepRun := func(cold bool, w int, lat *[]time.Duration) int {
		opts := harness.SweepOptions{Workers: w, MaxNth: 2, NoCodeCache: cold, NoCache: cold}
		if lat != nil {
			opts.Progress = latProgress(lat)
		}
		return harness.FaultSweep(opts).Runs
	}
	campaignRun := func(cold bool, w int, lat *[]time.Duration) int {
		res, err := campaign.Run(campaign.Options{
			Seed: throughputCampaignSeed, Programs: 500, Workers: w,
			MinimizeBudget: -1, NoCodeCache: cold, NoCache: cold,
		})
		check(err)
		return res.Judged
	}

	var speedups []float64
	for _, d := range []struct {
		name    string
		withLat bool
		run     driverRun
	}{
		{"matrix", true, matrixRun(false)},
		{"matrix-jit", true, matrixRun(true)},
		{"faultsweep", true, sweepRun},
	} {
		cold, warm := measureDriver(d.name, workers, d.withLat, d.run)
		rep.Rows = append(rep.Rows, cold, warm)
		speedups = append(speedups, warm.UnitsPerSec/cold.UnitsPerSec)
	}
	// The campaign is measured single-pass per mode: its reuse wins come
	// from the per-program oracle runs (tier triples, fault schedules)
	// sharing one compiled artifact, not from re-running the whole campaign.
	fmt.Printf("  campaign-500: cold...")
	resetProcessCaches()
	t0 := time.Now()
	units := campaignRun(true, workers, nil)
	coldDur := time.Since(t0)
	coldRow := throughputRow{
		Driver: "campaign-500", Mode: "cold", Units: units,
		WallClockMs: ms(coldDur), UnitsPerSec: float64(units) / coldDur.Seconds(),
	}
	fmt.Printf(" warm...")
	resetProcessCaches()
	t0 = time.Now()
	units = campaignRun(false, workers, nil)
	warmDur := time.Since(t0)
	warmRow := throughputRow{
		Driver: "campaign-500", Mode: "warm", Units: units,
		WallClockMs: ms(warmDur), UnitsPerSec: float64(units) / warmDur.Seconds(),
	}
	fmt.Printf(" %.2fx (%v -> %v)\n", float64(coldDur)/float64(warmDur),
		coldDur.Round(time.Millisecond), warmDur.Round(time.Millisecond))
	rep.Rows = append(rep.Rows, coldRow, warmRow)

	logSum := 0.0
	for _, s := range speedups {
		logSum += math.Log(s)
	}
	geomean := math.Exp(logSum / float64(len(speedups)))
	rep.Summary = throughputSummary{
		TargetWarmSpeedup:          3.0,
		MatrixGeomeanWarmSpeedup:   geomean,
		MetTarget:                  geomean >= 3.0,
		CampaignProgramsPerSecCold: coldRow.UnitsPerSec,
		CampaignProgramsPerSecWarm: warmRow.UnitsPerSec,
	}

	fmt.Printf("\nwarm-cache matrix speedup: geomean %.2fx (target 3x: %v)\n", geomean, rep.Summary.MetTarget)
	fmt.Printf("campaign: %.1f programs/sec cold -> %.1f warm\n",
		coldRow.UnitsPerSec, warmRow.UnitsPerSec)
	data, err := json.MarshalIndent(rep, "", "  ")
	check(err)
	check(os.WriteFile(path, append(data, '\n'), 0o644))
	fmt.Printf("throughput baseline recorded to %s\n", path)
	if !rep.Summary.MetTarget {
		fmt.Fprintln(os.Stderr, "perfbench: warm-cache throughput target not met")
		os.Exit(1)
	}
}

// curveTimeToPeak looks up a configuration's recorded warm-up time by name.
func curveTimeToPeak(curves []warmupCurve, config string) int {
	for _, c := range curves {
		if c.Config == config {
			return c.TimeToPeakSec
		}
	}
	return 0
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
