package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"time"

	"repro/internal/corpus"
	"repro/internal/harness"
)

// verdictFile is refs/matrix_verdicts.json: for every corpus case, the
// matrix columns expected to detect its bug, derived from the corpus
// metadata alone (expectedDetects in the self-test) and pinned to the
// paper totals.
type verdictFile struct {
	Rule     string              `json:"rule"`
	Totals   map[string]int      `json:"totals"`
	Detected map[string][]string `json:"detected"`
}

// pinnedTotals are the detection totals per matrix column.
var pinnedTotals = map[string]int{
	"SafeSulong": 76, "ASan -O0": 60, "ASan -O3": 56,
	"Valgrind -O0": 20, "Valgrind -O3": 20, "Native -O0": 5,
}

// loadVerdicts reads the committed verdicts as case -> tool -> detected and
// checks them against the pinned totals.
func loadVerdicts(refs fs.FS) (map[string]map[string]bool, error) {
	data, err := fs.ReadFile(refs, "matrix_verdicts.json")
	if err != nil {
		return nil, err
	}
	var v verdictFile
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("matrix_verdicts.json: %w", err)
	}
	for tool, n := range pinnedTotals {
		if v.Totals[tool] != n {
			return nil, fmt.Errorf("matrix_verdicts.json: %s total %d, pinned %d", tool, v.Totals[tool], n)
		}
	}
	want := map[string]map[string]bool{}
	for name, tools := range v.Detected {
		want[name] = map[string]bool{}
		for _, t := range tools {
			want[name][t] = true
		}
	}
	return want, nil
}

// chunkSeconds is the least length of one matrix-warm chunk.
const chunkSeconds = 1

// runMatrix is the matrix-warm workload: the detection matrix over the
// whole corpus and every column, run repeatedly with warm caches after cold
// set-up passes. The seed permutes the case order.
func runMatrix(b *bench) error {
	want, err := loadVerdicts(b.refs)
	if err != nil {
		return err
	}
	all := corpus.All()
	cases := make([]corpus.Case, len(all))
	order := make([]string, len(all))
	for i, j := range permutation(len(all), splitmix64(b.seed)) {
		cases[i] = all[j]
		order[i] = all[j].Name
	}
	b.meta["cell_order"] = map[string]any{"cases": order, "tools": toolNames()}
	opts := harness.MatrixOptions{Workers: b.workers, Cases: cases}

	// check compares every cell of one pass with its expected verdict.
	check := func(m *harness.MatrixResult) int {
		n := 0
		for _, c := range cases {
			for _, t := range harness.Tools() {
				ok := m.Cells[c.Name][t].Detected == want[c.Name][t.String()]
				if !ok {
					b.correct = false
				}
				b.op(ok)
				n++
			}
		}
		return n
	}

	// Set-up: a cold pass from empty caches.
	setup, err := b.timeSetups(nil, func(rep int) error {
		id := b.tr.begin("harness.matrix_pass", "cold", -1, 0, int64(rep))
		m := harness.RunDetectionMatrixWith(opts)
		b.tr.end(id)
		check(m)
		return nil
	})
	if err != nil {
		return err
	}
	b.setE2E("setup_s", setup, "s")

	// The window is cut into chunks of whole passes, each at least
	// chunkSeconds long; ops_per_s is the median chunk's rate, so a burst of
	// collection or of load from elsewhere on the host moves one chunk, not
	// the figure.
	w := openWindow()
	cells, passes := 0, 0
	var passMS, rates []float64
	chunkStart, chunkCells := time.Now(), 0
	for time.Since(w.start) < b.window {
		id := b.tr.begin("harness.matrix_pass", "warm", -1, 0, int64(maxSetupReps+passes))
		t0 := time.Now()
		m := harness.RunDetectionMatrixWith(opts)
		passMS = append(passMS, ms(time.Since(t0)))
		b.tr.end(id)
		n := check(m)
		cells += n
		chunkCells += n
		passes++
		if d := time.Since(chunkStart); d >= chunkSeconds*time.Second {
			rates = append(rates, float64(chunkCells)/d.Seconds())
			chunkStart, chunkCells = time.Now(), 0
		}
	}
	secs := w.close(b, cells)
	b.meta["window_s"] = secs
	b.meta["passes"] = passes
	b.meta["pass_ms"] = passMS
	b.meta["chunk_cells_per_s"] = rates
	if len(rates) == 0 {
		rates = append(rates, float64(cells)/secs)
	}
	b.setE2E("ops_per_s", median(rates), "1/s")
	b.setE2E("mem_live_mb", liveHeapMB(), "MB")
	b.meta["ok_frac"] = b.okFrac()
	return nil
}

func toolNames() []string {
	var out []string
	for _, t := range harness.Tools() {
		out = append(out, t.String())
	}
	return out
}
