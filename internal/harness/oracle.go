package harness

// Oracle adapters for the differential fuzzing campaign (internal/campaign).
//
// The detection matrix compares *classifications* of known-buggy corpus
// programs; the campaign compares everything observable about *generated*
// programs across tiers and tools — a wrong-code bug shows up as identical
// classifications with different stdout, exit codes, or step counts, which
// Detection cannot express. Outcome carries the full comparison surface, and
// CompileOutcome plus RunModule produce one without going through corpus
// registration.

import (
	"crypto/sha256"
	"errors"
	"fmt"

	sulong "repro"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ir"
)

// Outcome is everything the campaign's oracles compare about one run of one
// program under one tool. Deterministic for a given (source, tool, budget)
// as long as the budget avoids wall-clock deadlines: every class below is
// decided by step budgets, fault schedules, or program behavior, never by
// elapsed time.
type Outcome struct {
	// Class is the coarse classification: "detected", "clean", "crashed",
	// "timeout" (step budget exhausted — deterministic), "deadline"
	// (wall-clock expiry — NOT deterministic; the campaign quarantines the
	// seed instead of judging it), "oom", "compile-error", "panic" (a
	// contained engine or compiler death — always a finding), or "error"
	// (other infrastructure failure).
	Class string `json:"class"`
	// Kind is the structured diagnostic's bug classification when the tool
	// produced one ("out-of-bounds access", "use-after-free", ...) — stable
	// across engines for the same bug class, which makes it the minimizer's
	// signature anchor: line numbers in Report shift as lines are deleted,
	// Kind does not.
	Kind string `json:"kind,omitempty"`
	// Report is the first line of the tool's report ("" when clean).
	Report string `json:"report,omitempty"`
	// Stdout and Exit are the program's observable behavior. Comparable
	// across tiers of the same engine; not across engine families (their
	// libc internals legitimately differ on undefined behavior).
	Stdout string `json:"stdout,omitempty"`
	Exit   int    `json:"exit"`
	// Steps is the managed engine's exact instruction count — the tier
	// parity ledger. Byte-identical between tier-0, forced tier-2, and
	// async+OSR runs of the same program, so any difference is a find.
	// Zero for the native family.
	Steps int64 `json:"steps,omitempty"`
	// HeapAllocs / InjectedFaults mirror the fault plane's accounting,
	// which is tier-invariant for heap traffic by construction.
	HeapAllocs     int64 `json:"heapAllocs,omitempty"`
	InjectedFaults int64 `json:"injectedFaults,omitempty"`
}

// Signature renders the outcome compactly and deterministically for journal
// records and divergence reports. Stdout beyond 64 bytes is folded into a
// hash so records stay small while remaining byte-exact comparators.
func (o Outcome) Signature() string {
	out := o.Stdout
	if len(out) > 64 {
		sum := sha256.Sum256([]byte(out))
		out = fmt.Sprintf("sha256:%x(len=%d)", sum[:8], len(o.Stdout))
	}
	return fmt.Sprintf("%s exit=%d steps=%d allocs=%d faults=%d report=%q stdout=%q",
		o.Class, o.Exit, o.Steps, o.HeapAllocs, o.InjectedFaults, firstLine(o.Report), out)
}

// Detected reports whether the tool positively identified a bug.
func (o Outcome) Detected() bool { return o.Class == "detected" }

// CompileOutcome compiles an arbitrary C program (not a registered corpus
// case) for one tool, returning the module on success or the Outcome that
// ends the run on failure. Callers that judge one program under several
// same-toolchain oracles (the campaign's tier-parity and fault oracles all
// use SafeSulong's pipeline) compile once and feed the module to RunModule
// per oracle. Neither half ever panics or kills the process: compile-stage
// and engine panics are contained (class "panic" — for a generated program
// that is the finding itself, not a retry candidate), and any harness-side
// panic lands in class "error".
func CompileOutcome(src string, tool Tool, b CaseBudget) (m *ir.Module, bad *Outcome) {
	defer func() {
		if r := recover(); r != nil {
			m, bad = nil, &Outcome{Class: "error", Report: fmt.Sprintf("internal harness error: panic: %v", r)}
		}
	}()
	cfg := b.config(corpus.Case{Name: "generated", Source: src}, tool)
	mod, err := sulong.CompileFor(src, cfg)
	if err != nil {
		var ie *core.InternalError
		if errors.As(err, &ie) {
			return nil, &Outcome{Class: "panic", Report: firstLine(err.Error())}
		}
		return nil, &Outcome{Class: "compile-error", Report: firstLine(err.Error())}
	}
	return mod, nil
}

// ReleaseModule retires a CompileOutcome module from the process-wide reuse
// layers once the caller's last run of it has finished. See
// sulong.ReleaseModule.
func ReleaseModule(mod *ir.Module) { sulong.ReleaseModule(mod) }

// RunModule executes an already-compiled module under one tool within the
// given budget, capturing the full comparison surface.
func RunModule(mod *ir.Module, tool Tool, b CaseBudget) (o Outcome) {
	defer func() {
		if r := recover(); r != nil {
			o = Outcome{Class: "error", Report: fmt.Sprintf("internal harness error: panic: %v", r)}
		}
	}()
	cfg := b.config(corpus.Case{Name: "generated"}, tool)
	res, err := sulong.RunModuleCtx(b.ctx(), mod, cfg)
	o = Outcome{
		Stdout:         res.Stdout,
		Exit:           res.ExitCode,
		Steps:          res.Stats.Steps,
		HeapAllocs:     res.Stats.HeapAllocs,
		InjectedFaults: res.Stats.InjectedFaults,
	}
	if err != nil {
		var limit *core.LimitError
		var deadline *core.DeadlineError
		var oom *core.ResourceError
		var ie *core.InternalError
		switch {
		case errors.As(err, &limit):
			o.Class, o.Report = "timeout", err.Error()
		case errors.As(err, &deadline):
			o.Class, o.Report = "deadline", err.Error()
		case errors.As(err, &oom):
			o.Class, o.Report = "oom", err.Error()
		case errors.As(err, &ie):
			o.Class, o.Report = "panic", firstLine(err.Error())
		default:
			o.Class, o.Report = "error", err.Error()
		}
		return o
	}
	switch {
	case res.Bug != nil:
		o.Class, o.Report = "detected", res.Bug.Error()
		if len(res.Diagnostics) > 0 {
			o.Kind = res.Diagnostics[0].Kind
		}
	case res.Fault != nil:
		o.Class, o.Report = "crashed", res.Fault.Error()
	default:
		o.Class = "clean"
	}
	return o
}
