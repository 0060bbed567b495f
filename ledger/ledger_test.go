package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io/fs"
	"os"
	"testing"
	"testing/fstest"
	"time"

	"repro/internal/campaign"
	"repro/internal/corpus"
	"repro/internal/gen"
	"repro/internal/harness"
)

var update = flag.Bool("update", false, "rewrite refs/matrix_verdicts.json and refs/campaign_findings.json")

// memcheckMisses are heap bugs whose bad access happens inside a libc
// string routine the memcheck model runs unchecked.
var memcheckMisses = map[string]bool{"heap-strlen-unterminated": true, "heap-sprintf-overflow": true}

const verdictRule = "SafeSulong detects every case; ASan -O0 every case not marked ASanBlindSpot; " +
	"ASan -O3 those minus OptimizedAwayAtO3; Valgrind -O0/-O3 the heap cases that are not blind spots, " +
	"minus heap-strlen-unterminated and heap-sprintf-overflow (unchecked libc string routines); " +
	"Native -O0 the null-dereference cases (the machine traps)."

// expectedDetects is the verdict rule behind refs/matrix_verdicts.json.
func expectedDetects(c corpus.Case, tool harness.Tool) bool {
	switch tool {
	case harness.SafeSulong:
		return true
	case harness.ASanO0:
		return !c.ASanBlindSpot
	case harness.ASanO3:
		return !c.ASanBlindSpot && !c.OptimizedAwayAtO3
	case harness.ValgrindO0, harness.ValgrindO3:
		return c.Mem == corpus.Heap && !c.ASanBlindSpot && !memcheckMisses[c.Name]
	case harness.NativeO0:
		return c.Category == corpus.NullDereference
	}
	return false
}

// buildVerdicts derives the verdict file from the corpus metadata.
func buildVerdicts() verdictFile {
	v := verdictFile{Rule: verdictRule, Totals: map[string]int{}, Detected: map[string][]string{}}
	for _, c := range corpus.All() {
		det := []string{}
		for _, t := range harness.Tools() {
			if expectedDetects(c, t) {
				det = append(det, t.String())
				v.Totals[t.String()]++
			}
		}
		v.Detected[c.Name] = det
	}
	return v
}

// TestMatrixVerdictsFile checks that the committed verdicts are exactly
// what the metadata rule gives, and that they carry the pinned totals.
// -update rewrites the file.
func TestMatrixVerdictsFile(t *testing.T) {
	data, err := json.MarshalIndent(buildVerdicts(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *update {
		if err := os.WriteFile("refs/matrix_verdicts.json", data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("refs/matrix_verdicts.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("refs/matrix_verdicts.json differs from the metadata rule; rerun with -update")
	}
	if _, err := loadVerdicts(os.DirFS("refs")); err != nil {
		t.Fatal(err)
	}
}

// TestCampaignFindingsFile checks the committed default-seed findings: the
// default seed's campaigns at a one-second and at BENCHMARK.json's window,
// judged by campaign.Run. -update rewrites the file.
func TestCampaignFindingsFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two campaigns")
	}
	want := []expectedCampaign{}
	for _, secs := range []int{1, readSpec(t).RunSeconds} {
		p, err := planCampaign(defaultSeed, 0, campaignBlindSpots(time.Duration(secs)*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		res, err := campaign.Run(campaign.Options{Seed: p.Root, Programs: p.Programs, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, expectedCampaign{Root: p.Root, Programs: p.Programs, Findings: findingsOf(res)})
	}
	data, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *update {
		if err := os.WriteFile("refs/campaign_findings.json", data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("refs/campaign_findings.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("refs/campaign_findings.json differs from the default seed's findings:\n%s", data)
	}
}

// newTestBench is a bench for an in-process run of one workload.
func newTestBench(t *testing.T, workload string, seed uint64, seconds int, refs fs.FS) *bench {
	t.Helper()
	return &bench{
		workload: workload, seed: seed, window: time.Duration(seconds) * time.Second,
		workers: 2, correct: true, refs: refs,
		e2e: map[string]metric{}, layer: map[string]metric{}, meta: map[string]any{},
	}
}

// testRefs is the committed refs directory as an editable map.
func testRefs(t *testing.T) fstest.MapFS {
	t.Helper()
	m := fstest.MapFS{}
	err := fs.WalkDir(os.DirFS("refs"), ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile("refs/" + path)
		m[path] = &fstest.MapFile{Data: data}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// spec is the part of BENCHMARK.json the self-test reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEveryMetricEmitted runs each workload at a one-second window and
// checks that it reports every end-to-end metric with BENCHMARK.json's
// unit and nothing else, and that a traced run reports every per-layer
// metric.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := readSpec(t)
	for _, w := range s.Workloads {
		b := newTestBench(t, w.Name, 7, 1, testRefs(t))
		if err := workloads[w.Name](b); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !b.correct {
			t.Errorf("%s: run not correct", w.Name)
		}
		for _, want := range s.EndToEnd {
			m, ok := b.e2e[want.Name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s missing", w.Name, want.Name)
			case m.Unit != want.Unit:
				t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", w.Name, want.Name, m.Unit, want.Unit)
			case m.Value <= 0:
				t.Errorf("%s: metric %s is %v", w.Name, want.Name, m.Value)
			}
		}
		if len(b.e2e) != len(s.EndToEnd) {
			t.Errorf("%s: reports %d end-to-end metrics, BENCHMARK.json names %d", w.Name, len(b.e2e), len(s.EndToEnd))
		}
	}

	b := newTestBench(t, "matrix-warm", 7, 1, testRefs(t))
	b.tr = newTracer()
	if err := runMatrix(b); err != nil {
		t.Fatal(err)
	}
	if err := b.finishTrace(); err != nil {
		t.Fatal(err)
	}
	for _, m := range s.PerLayer {
		got, ok := b.layer[m.Name]
		switch {
		case !ok:
			t.Errorf("per-layer metric %s missing", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("per-layer metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(b.layer) != len(s.PerLayer) {
		t.Errorf("traced run reports %d per-layer metrics, BENCHMARK.json names %d", len(b.layer), len(s.PerLayer))
	}
}

// TestCorruptReferenceLowersOKFrac checks that each workload's check really
// checks: one wrong reference must lower ok_frac and clear correct.
func TestCorruptReferenceLowersOKFrac(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	corrupt := map[string]func(t *testing.T, refs fstest.MapFS){
		// Move one ASan -O0 verdict to another case: the totals still
		// match the pinned ones, two cells per pass no longer do.
		"matrix-warm": func(t *testing.T, refs fstest.MapFS) {
			var v verdictFile
			if err := json.Unmarshal(refs["matrix_verdicts.json"].Data, &v); err != nil {
				t.Fatal(err)
			}
			v.Detected["heap-read-underflow"] = remove(v.Detected["heap-read-underflow"], "ASan -O0")
			v.Detected["argv-direct-index"] = append(v.Detected["argv-direct-index"], "ASan -O0")
			data, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			refs["matrix_verdicts.json"].Data = data
		},
		"peak": func(t *testing.T, refs fstest.MapFS) {
			refs["peak/nbody.out"].Data = []byte("-0.169075164\n")
		},
		// At the default seed the campaign's findings are pinned.
		"campaign": func(t *testing.T, refs fstest.MapFS) {
			var f []expectedCampaign
			if err := json.Unmarshal(refs["campaign_findings.json"].Data, &f); err != nil {
				t.Fatal(err)
			}
			for i := range f {
				f[i].Findings[0].Index++
			}
			data, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			refs["campaign_findings.json"].Data = data
		},
	}
	for name, fn := range corrupt {
		t.Run(name, func(t *testing.T) {
			refs := testRefs(t)
			fn(t, refs)
			b := newTestBench(t, name, defaultSeed, 1, refs)
			if err := workloads[name](b); err != nil {
				t.Fatal(err)
			}
			clean := 1.0
			if name == "peak" {
				// The baseline faults already fail four cells.
				clean = float64(b.attempted-len(knownFaults)) / float64(b.attempted)
			}
			if got := b.okFrac(); got >= clean {
				t.Errorf("ok_frac = %v with a corrupt reference, want < %v", got, clean)
			}
			if b.correct {
				t.Error("run still reports correct with a corrupt reference")
			}
		})
	}
}

func remove(xs []string, x string) []string {
	var out []string
	for _, y := range xs {
		if y != x {
			out = append(out, y)
		}
	}
	return out
}

// TestCampaignSeedsDiffer checks that two seeds judge different programs
// and that one seed always plans the same campaign.
func TestCampaignSeedsDiffer(t *testing.T) {
	a, err := planCampaign(1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := planCampaign(2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Root == b.Root {
		t.Fatalf("seeds 1 and 2 share root %d", a.Root)
	}
	for i := 0; i < a.Programs; i++ {
		if gen.Generate(gen.SeedAt(a.Root, i)).Source == gen.Generate(gen.SeedAt(b.Root, i)).Source {
			t.Errorf("program %d is the same under seeds 1 and 2", i)
		}
	}
	again, err := planCampaign(1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Root != a.Root {
		t.Errorf("seed 1 planned root %d, then %d", a.Root, again.Root)
	}
}

// TestCampaignBaselineDefects checks the campaign's check on made-up
// results: the two baseline classes of hard finding and quarantine fail
// their op and leave the run correct; any other hard finding or quarantine,
// such as a tier divergence that is not two step-budget timeouts, clears
// correct.
func TestCampaignBaselineDefects(t *testing.T) {
	p := plan{Root: 1, Programs: 8, Blind: []int{1}}
	blind := campaign.Finding{Index: 1, Kind: campaign.KindToolBlindSpot, Generator: "gen"}
	timeouts := "tier-1 vs tier-0: {timeout exit=-1 steps=2000015} != {timeout exit=-1 steps=2000009}"
	cases := []struct {
		name        string
		finding     *campaign.Finding
		quarantine  *campaign.Quarantine
		wantCorrect bool
	}{
		{"none", nil, nil, true},
		{"non-terminating binsearch mutant", &campaign.Finding{Index: 3, Kind: campaign.KindTierDivergence,
			Generator: "mut:stack-binsearch-hi", Signature: timeouts}, nil, true},
		{"global-initializer quarantine", nil, &campaign.Quarantine{Index: 7,
			Reason: "tier-0: core: initializing global count: invalid write of size 4"}, true},
		{"miscompile", &campaign.Finding{Index: 3, Kind: campaign.KindTierDivergence,
			Generator: "mut:stack-binsearch-hi", Signature: "tier-1 vs tier-0: {clean exit=0} != {timeout exit=-1}"}, nil, false},
		{"divergence of a generated program", &campaign.Finding{Index: 2, Kind: campaign.KindTierDivergence,
			Generator: "gen", Signature: timeouts}, nil, false},
		{"fault divergence", &campaign.Finding{Index: 3, Kind: campaign.KindFaultDivergence,
			Generator: "mut:stack-binsearch-hi", Signature: timeouts}, nil, false},
		{"other quarantine", nil, &campaign.Quarantine{Index: 7, Reason: "tier-0: wall-clock guard"}, false},
		{"initializer quarantine of a generated program", nil, &campaign.Quarantine{Index: 2,
			Reason: "tier-0: core: initializing global count: invalid write of size 4"}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := &campaign.Result{Programs: p.Programs, Judged: p.Programs, Findings: []campaign.Finding{blind}}
			wantFailed := 0
			if c.finding != nil {
				res.Findings = append(res.Findings, *c.finding)
				wantFailed++
			}
			if c.quarantine != nil {
				res.Quarantined = append(res.Quarantined, *c.quarantine)
				wantFailed++
			}
			b := newTestBench(t, "campaign", 1, 1, nil)
			b.check(p, res, nil)
			if b.correct != c.wantCorrect {
				t.Errorf("correct = %v, want %v (meta %v)", b.correct, c.wantCorrect, b.meta)
			}
			if b.attempted != p.Programs || b.failed != wantFailed {
				t.Errorf("attempted %d failed %d, want %d and %d", b.attempted, b.failed, p.Programs, wantFailed)
			}
		})
	}
}
