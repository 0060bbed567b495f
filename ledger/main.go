// Command ledger is the repository's benchmark: one workload per process,
// timed end to end over a fixed window, checked against independent
// references, with an optional traced run that splits the cost by layer.
//
//	go run . --workload matrix-warm --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Untraced runs (--trace 0) report
// the end-to-end metrics; traced runs (--trace 1) report the per-layer
// metrics and write their spans under .bench_build/traces/. See README.md
// for the workloads, the metrics and the baseline defects.
package main

import (
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the campaign's canonical seed; the committed campaign
// expectation (refs/campaign_findings.json) is pinned at it.
const defaultSeed = 0xC0FFEE

// refsFS holds the committed references every run checks against.
//
//go:embed refs
var refsFS embed.FS

// workloads maps each workload name to its driver.
var workloads = map[string]func(*bench) error{
	"matrix-warm": runMatrix,
	"campaign":    runCampaign,
	"peak":        runPeak,
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one workload run: its inputs, its load settings and what it has
// measured so far.
type bench struct {
	workload string
	seed     uint64
	window   time.Duration
	workers  int
	tr       *tracer // nil when untraced
	refs     fs.FS   // the refs directory

	// correct is cleared by any output that does not match its reference
	// and by any failure outside the known baseline failures.
	correct   bool
	attempted int
	failed    int
	e2e       map[string]metric
	layer     map[string]metric
	meta      map[string]any
}

func (b *bench) setE2E(name string, v float64, unit string) { b.e2e[name] = metric{v, unit} }

func (b *bench) setLayer(name string, v float64, unit string) { b.layer[name] = metric{v, unit} }

// op records one checked operation.
func (b *bench) op(ok bool) {
	b.attempted++
	if !ok {
		b.failed++
	}
}

// note appends a line to a list in the run metadata.
func (b *bench) note(key, line string) {
	l, _ := b.meta[key].([]string)
	b.meta[key] = append(l, line)
}

// okFrac is the share of attempted operations that matched their reference.
func (b *bench) okFrac() float64 {
	if b.attempted == 0 {
		return 0
	}
	return float64(b.attempted-b.failed) / float64(b.attempted)
}

func main() {
	workload := flag.String("workload", "", "workload: matrix-warm, campaign or peak")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Int("seconds", 20, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "ledger: usage: --workload {matrix-warm|campaign|peak} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		workers:  runtime.NumCPU(),
		correct:  true,
		e2e:      map[string]metric{},
		layer:    map[string]metric{},
		meta:     map[string]any{},
	}
	refs, err := fs.Sub(refsFS, "refs")
	if err != nil {
		fmt.Fprintf(os.Stderr, "ledger: %v\n", err)
		os.Exit(1)
	}
	b.refs = refs
	if *trace == 1 {
		b.tr = newTracer()
	}
	b.meta["workload"] = b.workload
	b.meta["seed"] = b.seed
	b.meta["seconds"] = *seconds
	b.meta["trace"] = *trace
	b.meta["nproc"] = runtime.NumCPU()
	b.meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	b.meta["workers"] = b.workers
	b.meta["go"] = runtime.Version()

	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "ledger: %s: %v\n", b.workload, err)
		os.Exit(1)
	}
	if b.tr != nil {
		if err := b.finishTrace(); err != nil {
			fmt.Fprintf(os.Stderr, "ledger: trace: %v\n", err)
			os.Exit(1)
		}
	}
	if err := b.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "ledger: %v\n", err)
		os.Exit(1)
	}
}

// print writes the run metadata, a human-readable metric table and, last,
// the result line.
func (b *bench) print(w *os.File) error {
	meta, err := json.Marshal(map[string]any{"meta": b.meta})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(meta))
	metrics := b.e2e
	if b.tr != nil {
		metrics = b.layer
		traced, err := json.Marshal(map[string]any{"traced_e2e": b.e2e})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(traced))
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-28s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	out, err := json.Marshal(result{Correct: b.correct, Attempted: b.attempted, Failed: b.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}
