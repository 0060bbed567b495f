package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	sulong "repro"
)

// median returns the middle value of xs (the mean of the two middle values
// for even lengths), or 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean returns the geometric mean of positive xs, or 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeSample is a snapshot of the Go runtime counters the benchmark
// reports.
type runtimeSample struct {
	gcCPU, totalCPU float64 // seconds
	gcCycles        uint64
	allocBytes      uint64
}

var sampleNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		gcCycles:   s[2].Value.Uint64(),
		allocBytes: s[3].Value.Uint64(),
	}
}

// runtimeDelta is the change in the runtime counters over a window.
type runtimeDelta struct {
	gcCPUFrac  float64
	gcCycles   uint64
	allocBytes uint64
}

func (a runtimeSample) to(b runtimeSample) runtimeDelta {
	d := runtimeDelta{gcCycles: b.gcCycles - a.gcCycles, allocBytes: b.allocBytes - a.allocBytes}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}

// liveHeapMB forces a collection and returns the live Go heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// splitmix64 derives independent streams from the benchmark seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// permutation returns a seeded Fisher-Yates shuffle of 0..n-1.
func permutation(n int, seed uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s := seed
	for i := n - 1; i > 0; i-- {
		s = splitmix64(s)
		j := int(s % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Set-up repeats at least minSetupReps times and until minSetupSeconds of
// set-up have been timed, at most maxSetupReps times; setup_s is the
// median. Cheap set-ups thus get many samples and a short burst of load
// elsewhere on the host moves few of them.
const (
	minSetupReps    = 5
	maxSetupReps    = 41
	minSetupSeconds = 3
)

// timeSetups runs setup repeatedly, each time from empty module and code
// caches, and returns the median wall time in seconds. Before each
// repetition's clock starts, release (if not nil) drops what the previous
// repetition built, the caches are reset and the heap is collected, so no
// repetition pays for the one before; a last collection keeps the final
// repetition's garbage out of the timed window. Every repetition's time
// goes into the run metadata.
func (b *bench) timeSetups(release func(), setup func(rep int) error) (float64, error) {
	var secs []float64
	total := 0.0
	for rep := 0; rep < maxSetupReps && (rep < minSetupReps || total < minSetupSeconds); rep++ {
		if release != nil && rep > 0 {
			release()
		}
		sulong.ResetCache()
		sulong.ResetCodeCache()
		runtime.GC()
		t0 := time.Now()
		if err := setup(rep); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		total += secs[len(secs)-1]
	}
	runtime.GC()
	b.meta["setup_reps_s"] = secs
	return median(secs), nil
}
