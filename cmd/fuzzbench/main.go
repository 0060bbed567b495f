// Command fuzzbench runs a crash-resilient differential fuzzing campaign:
// seeded program generation, three oracles per program (tier parity,
// fault-schedule parity, cross-tool blind spots), supervised workers, an
// append-only checkpoint journal, and automatic delta-debugging of every
// confirmed finding into a corpus-shaped case.
//
// Usage:
//
//	fuzzbench -seed 0xC0FFEE -programs 10000           # fresh campaign
//	fuzzbench ... -journal camp.jsonl                  # checkpoint as you go
//	fuzzbench ... -journal camp.jsonl -resume          # continue after any crash
//	fuzzbench ... -out finds/                          # write intake files per find
//	fuzzbench ... -maxnth 3                            # deeper fault schedules
//	fuzzbench ... -mutate 0                            # grammar only, no corpus mutants
//	fuzzbench ... -json report.json                    # machine-readable result
//
// The campaign is deterministic: program i is a pure function of
// (-seed, i), records are journaled in index order, and a campaign killed
// at any point — power loss included — resumes from its journal to the
// byte-identical journal and result an uninterrupted run would have
// produced.
//
// Exit status: 0 when the campaign completes (tool blind spots are results,
// not defects), 1 when it finds hard engine defects (tier or fault
// divergences, engine panics) or cannot run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/campaign"
	"repro/internal/harness"
)

// fuzzSchemaVersion identifies the -json report shape.
const fuzzSchemaVersion = 1

type fuzzReport struct {
	SchemaVersion int     `json:"schemaVersion"`
	Seed          uint64  `json:"seed"`
	WallClockMs   float64 `json:"wallClockMs"`
	*campaign.Result
	HardFindings int `json:"hardFindings"`
	// Caches reports process-wide cache effectiveness (pipeline module
	// cache, executable-code cache), key-sorted for stable
	// diffing across runs.
	Caches harness.CacheReport `json:"caches"`
}

func main() {
	seed := flag.Uint64("seed", 1, "campaign root seed (program i derives from it)")
	programs := flag.Int("programs", 1000, "number of programs to judge")
	workers := flag.Int("workers", 0, "supervised worker pool size (0 = GOMAXPROCS)")
	maxNth := flag.Int64("maxnth", 2, "sweep fault schedules FailNth=1..N (negative disables)")
	mutate := flag.Int("mutate", 4, "every k'th program mutates a corpus case (negative disables)")
	maxSteps := flag.Int64("maxsteps", 0, "per-run step budget (0 = campaign default)")
	timeout := flag.Duration("timeout", 0, "per-run wall-clock guard; hits are quarantined, never judged")
	journal := flag.String("journal", "", "append-only checkpoint file")
	resume := flag.Bool("resume", false, "resume an interrupted campaign from -journal")
	outDir := flag.String("out", "", "directory for per-finding intake files")
	minBudget := flag.Int("minimize", 0, "delta-debugging budget in oracle re-runs per finding (0 = default, negative disables)")
	jsonPath := flag.String("json", "", "also write a machine-readable report to this file")
	quiet := flag.Bool("q", false, "suppress the progress line")
	flag.Parse()

	opts := campaign.Options{
		Seed:           *seed,
		Programs:       *programs,
		Workers:        *workers,
		MaxNth:         *maxNth,
		MutateEvery:    *mutate,
		MaxSteps:       *maxSteps,
		Timeout:        *timeout,
		Journal:        *journal,
		Resume:         *resume,
		OutDir:         *outDir,
		MinimizeBudget: *minBudget,
	}
	if !*quiet {
		opts.Progress = func(done, total int) {
			// One line, updated in place; sparse enough not to drown logs
			// when stderr is a file.
			if done == total || done%25 == 0 {
				fmt.Fprintf(os.Stderr, "\r%d/%d programs judged", done, total)
			}
		}
	}

	start := time.Now()
	res, err := campaign.Run(opts)
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fuzzbench:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	fmt.Print(res.Summary())
	fmt.Printf("wall clock: %.1fs\n", elapsed.Seconds())

	if *jsonPath != "" {
		report := fuzzReport{
			SchemaVersion: fuzzSchemaVersion,
			Seed:          *seed,
			WallClockMs:   float64(elapsed.Microseconds()) / 1e3,
			Result:        res,
			HardFindings:  len(res.Hard()),
			Caches:        harness.Caches(),
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "fuzzbench: encode report:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fuzzbench: write report:", err)
			os.Exit(1)
		}
	}

	if hard := res.Hard(); len(hard) > 0 {
		fmt.Fprintf(os.Stderr, "fuzzbench: %d hard engine defect(s) found\n", len(hard))
		os.Exit(1)
	}
}
