package sulong_test

// Warm-vs-cold parity pin for the compile-once/run-many machinery, run under
// -race by `make throughputcheck`. A warm run — module and executable-code
// cache hits — must be observationally indistinguishable from a cold compile: byte-identical stdout, exit code, Stats.Steps,
// Stats.Calls, and rendered diagnostics, across the full bug corpus, for
// tier-0, forced tier-1, and async+OSR tiering, clean and under injected
// allocation faults. TestBenchPR10Schema additionally pins the committed
// BENCH_PR10.json throughput baseline to its schema.

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	sulong "repro"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/harness"
)

// throughputTiers are the tier selections the pin sweeps: interpreter only,
// compile-on-first-call, and background tier-up with on-stack replacement at
// the first hot back-edge — the three execution models whose observables the
// code cache must not move.
var throughputTiers = []struct {
	name string
	cfg  func(*sulong.Config)
}{
	{"tier0", func(*sulong.Config) {}},
	{"jit", func(c *sulong.Config) { c.JIT = true; c.JITThreshold = 1 }},
	{"osr", func(c *sulong.Config) {
		c.JIT = true
		c.JITThreshold = 1
		c.JITAsync = true
		c.OSR = true
		c.OSRThreshold = 1
	}},
}

// runPin executes one corpus case once. cold opts out of the code cache (the
// from-scratch execution model); warm runs use it.
func runPin(t *testing.T, c corpus.Case, tier func(*sulong.Config), failNth int64, cold bool) sulong.Result {
	t.Helper()
	cfg := sulong.Config{
		Engine:      sulong.EngineSafeSulong,
		Args:        c.Args,
		MaxSteps:    harness.DefaultMaxSteps,
		FaultPlan:   fault.Plan{FailNth: failNth},
		NoCodeCache: cold,
	}
	if c.Stdin != "" {
		cfg.Stdin = strings.NewReader(c.Stdin)
	}
	tier(&cfg)
	res, err := sulong.Run(c.Source, cfg)
	if err != nil {
		t.Fatalf("%s (cold=%v, failNth=%d): %v", c.Name, cold, failNth, err)
	}
	return res
}

// observables flattens the parts of a Result the pin compares into one
// printable string, so a mismatch reports every divergent field at once.
func observables(r sulong.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "exit=%d steps=%d calls=%d\n", r.ExitCode, r.Stats.Steps, r.Stats.Calls)
	fmt.Fprintf(&b, "stdout=%q\n", r.Stdout)
	for _, d := range r.Diagnostics {
		b.WriteString(d.Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestWarmColdCacheParity is the acceptance pin: for every corpus case, every
// tier selection, and fault plans {none, FailNth 1, FailNth 2}, a cold run,
// a warm run, and a second warm run (the one that actually hits the code
// cache) must agree byte-for-byte on every observable.
func TestWarmColdCacheParity(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep skipped in -short mode")
	}
	for _, tier := range throughputTiers {
		tier := tier
		t.Run(tier.name, func(t *testing.T) {
			for _, c := range corpus.All() {
				c := c
				t.Run(c.Name, func(t *testing.T) {
					t.Parallel()
					for _, failNth := range []int64{0, 1, 2} {
						cold := observables(runPin(t, c, tier.cfg, failNth, true))
						warm1 := observables(runPin(t, c, tier.cfg, failNth, false))
						warm2 := observables(runPin(t, c, tier.cfg, failNth, false))
						if warm1 != cold {
							t.Errorf("failNth=%d: first warm run diverges from cold:\ncold:\n%s\nwarm:\n%s",
								failNth, cold, warm1)
						}
						if warm2 != cold {
							t.Errorf("failNth=%d: cache-hit run diverges from cold:\ncold:\n%s\nwarm:\n%s",
								failNth, cold, warm2)
						}
					}
				})
			}
		})
	}
}

// TestBenchPR10Schema validates the committed throughput baseline the same
// way TestBenchPR6Schema pins BENCH_PR6.json: the schema tag, a cold and a
// warm row per driver with sane units/throughput, latency percentiles where
// the protocol promises them, and a summary that meets the warm-cache
// speedup target the PR claims.
func TestBenchPR10Schema(t *testing.T) {
	data, err := os.ReadFile("BENCH_PR10.json")
	if err != nil {
		t.Fatalf("BENCH_PR10.json must be committed alongside the code cache: %v", err)
	}
	var rep struct {
		Schema  string `json:"schema"`
		Workers int    `json:"workers"`
		Rows    []struct {
			Driver      string  `json:"driver"`
			Mode        string  `json:"mode"`
			Units       int     `json:"units"`
			WallClockMs float64 `json:"wall_clock_ms"`
			UnitsPerSec float64 `json:"units_per_sec"`
			P50CellMs   float64 `json:"p50_cell_ms"`
			P99CellMs   float64 `json:"p99_cell_ms"`
		} `json:"rows"`
		Summary struct {
			Target   float64 `json:"target_warm_speedup"`
			Geomean  float64 `json:"matrix_geomean_warm_speedup"`
			Met      bool    `json:"met_target"`
			CampCold float64 `json:"campaign_programs_per_sec_cold"`
			CampWarm float64 `json:"campaign_programs_per_sec_warm"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("parse BENCH_PR10.json: %v", err)
	}
	if rep.Schema != "sulong-bench/pr10" {
		t.Fatalf("schema = %q, want sulong-bench/pr10", rep.Schema)
	}
	if rep.Workers < 1 {
		t.Fatalf("workers = %d", rep.Workers)
	}

	type key struct{ driver, mode string }
	seen := map[key]bool{}
	for _, r := range rep.Rows {
		if r.Mode != "cold" && r.Mode != "warm" {
			t.Fatalf("row %s has mode %q", r.Driver, r.Mode)
		}
		if r.Units <= 0 || r.WallClockMs <= 0 || r.UnitsPerSec <= 0 {
			t.Fatalf("row %s/%s has empty measurements: %+v", r.Driver, r.Mode, r)
		}
		if r.Driver != "campaign-500" {
			if r.P50CellMs <= 0 || r.P99CellMs < r.P50CellMs {
				t.Fatalf("row %s/%s has implausible latency percentiles: p50=%v p99=%v",
					r.Driver, r.Mode, r.P50CellMs, r.P99CellMs)
			}
		}
		seen[key{r.Driver, r.Mode}] = true
	}
	for _, driver := range []string{"matrix", "matrix-jit", "faultsweep", "campaign-500"} {
		for _, mode := range []string{"cold", "warm"} {
			if !seen[key{driver, mode}] {
				t.Errorf("missing row %s/%s", driver, mode)
			}
		}
	}

	if rep.Summary.Target != 3.0 {
		t.Errorf("target_warm_speedup = %v, want 3.0", rep.Summary.Target)
	}
	if !rep.Summary.Met || rep.Summary.Geomean < rep.Summary.Target {
		t.Errorf("committed baseline misses the warm-cache target: geomean %.2fx vs %.1fx",
			rep.Summary.Geomean, rep.Summary.Target)
	}
	if rep.Summary.CampCold <= 0 || rep.Summary.CampWarm <= 0 {
		t.Errorf("campaign programs/sec missing: cold=%v warm=%v",
			rep.Summary.CampCold, rep.Summary.CampWarm)
	}
}
