package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"slices"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/gen"
	"repro/internal/harness"
)

// programsPerBlindSpot sets the campaign's size: one planned tool blind
// spot per 48 programs, the blind-spot rate of the default campaign (4 in
// 200 at seed 0xC0FFEE, 41 in 2000 over seeds 100..119), so every run pays
// the minimizer the way a long default campaign does on average.
const programsPerBlindSpot = 48

// mutateEvery mirrors campaign.Options' default MutateEvery: every fourth
// program is a corpus mutant, which the blind-spot oracle never judges.
const mutateEvery = 4

// blindProne are the generator's bug tags that can end in a tool blind
// spot; no other tag did over 2000 programs.
var blindProne = map[string]bool{"far-global-read": true, "union-pun": true}

// plan is one planned campaign.Run: its root seed, its size and the
// programs the screen predicts to be its blind spots.
type plan struct {
	Root     uint64 `json:"root"`
	Programs int    `json:"programs"`
	Blind    []int  `json:"blind"`
}

// planCampaign picks the campaign for stream k of the seed: the first
// candidate root seed whose grammar-generated programs carry exactly
// `blind` blind-prone tags, each of which the screen confirms. The screen is
// independent of the campaign driver: it runs the program through
// harness.CompileOutcome and harness.RunModule directly.
func planCampaign(seed uint64, k, blind int) (plan, error) {
	programs := blind * programsPerBlindSpot
	for j := 0; j < 100000; j++ {
		root := splitmix64(splitmix64(seed^uint64(k)<<32) + uint64(j))
		var idx []int
		var srcs []string
		for i := 0; i < programs && len(idx) <= blind; i++ {
			if (i+1)%mutateEvery == 0 {
				continue
			}
			if info := gen.Generate(gen.SeedAt(root, i)); blindProne[info.Bug] {
				idx = append(idx, i)
				srcs = append(srcs, info.Source)
			}
		}
		if len(idx) != blind {
			continue
		}
		ok := true
		for _, src := range srcs {
			if ok = blindSpot(src); !ok {
				break
			}
		}
		if ok {
			return plan{Root: root, Programs: programs, Blind: idx}, nil
		}
	}
	return plan{}, fmt.Errorf("campaign: no plan %d for seed %d", k, seed)
}

// screenBudget matches the campaign's default per-run step bound.
var screenBudget = harness.CaseBudget{MaxSteps: 2_000_000}

// blindSpot reports whether Safe Sulong detects a bug in src that ASan,
// Valgrind and the native machine at -O0 all run through silently.
func blindSpot(src string) bool {
	mod, bad := harness.CompileOutcome(src, harness.SafeSulong, screenBudget)
	if bad != nil {
		return false
	}
	o := harness.RunModule(mod, harness.SafeSulong, screenBudget)
	harness.ReleaseModule(mod)
	if !o.Detected() {
		return false
	}
	nm, bad := harness.CompileOutcome(src, harness.ASanO0, screenBudget)
	if bad != nil {
		return false
	}
	defer harness.ReleaseModule(nm)
	for _, t := range []harness.Tool{harness.ASanO0, harness.ValgrindO0, harness.NativeO0} {
		if harness.RunModule(nm, t, screenBudget).Class != "clean" {
			return false
		}
	}
	return true
}

// expectedCampaign is one entry of refs/campaign_findings.json: the
// findings of one default-seed campaign.
type expectedCampaign struct {
	Root     uint64            `json:"root"`
	Programs int               `json:"programs"`
	Findings []expectedFinding `json:"findings"`
}

type expectedFinding struct {
	Index int    `json:"index"`
	Kind  string `json:"kind"`
	Bug   string `json:"bug"`
}

// loadCampaignRefs reads the committed findings of the default seed.
func loadCampaignRefs(refs fs.FS) ([]expectedCampaign, error) {
	data, err := fs.ReadFile(refs, "campaign_findings.json")
	if err != nil {
		return nil, err
	}
	var out []expectedCampaign
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("campaign_findings.json: %w", err)
	}
	return out, nil
}

// findingsOf lists a campaign's findings in the form the refs keep.
func findingsOf(res *campaign.Result) []expectedFinding {
	out := []expectedFinding{}
	for _, f := range res.Findings {
		out = append(out, expectedFinding{Index: f.Index, Kind: f.Kind, Bug: f.Bug})
	}
	return out
}

// blindSeconds is about how long one planned blind spot's share of the
// campaign takes on a 2-vCPU machine. A run plans --seconds / blindSeconds
// blind spots, at least one, so the number of programs, and the modules the
// minimizer leaves behind, do not depend on the machine's speed.
const blindSeconds = 5

func campaignBlindSpots(window time.Duration) int {
	return max(1, int(window/(blindSeconds*time.Second)))
}

// runCampaign is the campaign workload: one default-option campaign.Run.
// Planning it from the seed is input generation and is not timed; set-up is
// the screen of the planned blind spots, from reset caches.
func runCampaign(b *bench) error {
	refs, err := loadCampaignRefs(b.refs)
	if err != nil {
		return err
	}
	var p plan
	b.tr.timed("campaign.plan", "", -1, 0, 0, func() { p, err = planCampaign(b.seed, 0, campaignBlindSpots(b.window)) })
	if err != nil {
		return err
	}
	b.meta["cell_order"] = p
	setup, err := b.timeSetups(nil, func(rep int) error {
		for _, i := range p.Blind {
			src := gen.Generate(gen.SeedAt(p.Root, i)).Source
			if !blindSpot(src) {
				return fmt.Errorf("campaign: planned blind spot %d of root %d did not screen", i, p.Root)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.setE2E("setup_s", setup, "s")

	w := openWindow()
	var res *campaign.Result
	b.tr.timed("campaign.run", "", -1, 0, 0, func() {
		res, err = campaign.Run(campaign.Options{Seed: p.Root, Programs: p.Programs, Workers: b.workers})
	})
	if err != nil {
		return err
	}
	secs := w.close(b, p.Programs)
	b.check(p, res, refs)
	b.meta["window_s"] = secs
	b.setE2E("ops_per_s", float64(p.Programs)/secs, "1/s")
	b.setE2E("mem_live_mb", liveHeapMB(), "MB")
	b.meta["ok_frac"] = b.okFrac()
	return nil
}

// check counts one op per program. A program is ok when it was judged with
// no hard finding and no quarantine. Two classes of hard finding and
// quarantine are baseline defects (README.md): they fail their op but leave
// the run correct. Any other hard finding or quarantine makes the run wrong,
// as does a program the screen predicted that is not found as a blind spot,
// programs left unjudged or, at the default seed, findings that differ from
// the committed expectation. A blind spot the screen did not predict is
// fine: the screen only runs the blind-prone tags.
func (b *bench) check(p plan, res *campaign.Result, refs []expectedCampaign) {
	failed := map[int]bool{}
	wrong := res.Judged != p.Programs
	found := map[int]bool{}
	for _, f := range res.Findings {
		b.note("findings", fmt.Sprintf("program %d %s %s %s: %.100s", f.Index, f.Kind, f.Generator, f.Bug, f.Signature))
		switch {
		case f.Kind == campaign.KindToolBlindSpot:
			found[f.Index] = true
		case knownDivergence(f):
			failed[f.Index] = true
		default:
			failed[f.Index] = true
			wrong = true
			b.note("wrong", fmt.Sprintf("program %d: hard finding outside the baseline defects", f.Index))
		}
	}
	for _, i := range p.Blind {
		if !found[i] {
			failed[i] = true
			wrong = true
			b.note("wrong", fmt.Sprintf("program %d: screened blind spot not found", i))
		}
	}
	for _, q := range res.Quarantined {
		failed[q.Index] = true
		b.note("quarantined", fmt.Sprintf("program %d: %.100s", q.Index, q.Reason))
		if !knownQuarantine(q) {
			wrong = true
			b.note("wrong", fmt.Sprintf("program %d: quarantine outside the baseline defects", q.Index))
		}
	}
	for _, r := range refs {
		if b.seed != defaultSeed || r.Root != p.Root || slices.Equal(r.Findings, findingsOf(res)) {
			continue
		}
		wrong = true
		for _, f := range r.Findings {
			failed[f.Index] = true
		}
		b.note("wrong", "findings differ from refs/campaign_findings.json")
	}
	for i := 0; i < p.Programs; i++ {
		b.op(!failed[i])
	}
	if wrong {
		b.correct = false
	}
}

// knownDivergence matches the baseline's hard findings: mutants of
// stack-binsearch-hi that never terminate, so that tier-0 and a compiled
// tier both stop at the step budget, with different step counts.
func knownDivergence(f campaign.Finding) bool {
	return f.Kind == campaign.KindTierDivergence && f.Generator == "mut:stack-binsearch-hi" &&
		strings.Contains(f.Signature, " vs tier-0: {timeout ") &&
		strings.Contains(f.Signature, "} != {timeout ")
}

// knownQuarantine matches the baseline's quarantines: a corpus mutant whose
// global initializer writes out of bounds, which the campaign declines to
// judge.
func knownQuarantine(q campaign.Quarantine) bool {
	return (q.Index+1)%mutateEvery == 0 &&
		strings.Contains(q.Reason, "initializing global") && strings.Contains(q.Reason, "invalid write")
}
