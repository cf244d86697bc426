package main

import (
	"crypto/sha256"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// window is one slice of a timed section, about a second or one
// operation long, with the machine's speed while it ran.
//
// This VM does not run at one speed. It alternates, in phases of tens
// of seconds, between two speeds a quarter apart (a spin loop takes 390
// or 500 ms), and ten runs of one binary spread 15–27% on every timed
// metric while allocation counts repeat to a tenth of a percent. A
// bound of 5–10% on raw seconds would gate the neighbours, not the
// code. So the harness times a yardstick — a fixed piece of work of its
// own — on either side of every window, and reports every time-based
// metric at the yardstick's nominal speed: seconds × (nominal yardstick
// time ÷ yardstick time then). Raw values and the speed are printed
// beside them.
type window struct {
	sample
	opMS  float64 // median latency of the operations that ended in it
	speed float64 // nominal yardstick time ÷ its time around this window
}

func (w window) rate() float64 { return float64(w.imps) / w.wall.Seconds() / w.speed }
func (w window) cpuPerImp() float64 {
	return w.speed * float64(w.cpu) / float64(time.Microsecond) / float64(w.imps)
}
func (w window) opNominal() float64 { return w.speed * w.opMS }

// over is the median of f over the windows that moved anything.
func over(ws []window, f func(window) float64) float64 {
	xs := make([]float64, 0, len(ws))
	for _, w := range ws {
		if w.imps > 0 {
			xs = append(xs, f(w))
		}
	}
	return median(xs)
}

// yardstickNominal is the yardstick's time on this box in its fast
// phase. It only fixes the unit: a different constant scales every
// timed metric of parent and change alike.
const yardstickNominal = 35 * time.Millisecond

var yardstickSink uint64

// yardstick times a fixed mix of what the pipeline does — string-keyed
// map inserts, a sort, a hash, a dependent arithmetic chain, with the
// allocation those bring — on every processor at once, because the
// workloads keep every processor busy and the slow phase need not hit
// them alike. Its working set stays in cache on purpose: a version that
// also walked 64 MB at random read 10–17% apart from one call to the
// next on a quiet machine, more than the workloads themselves, and made
// every timed metric noisier than its raw value. It returns nominal ÷
// measured: 1 at nominal speed, 0.78 in this box's slow phase.
func yardstick() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < runtime.GOMAXPROCS(0); p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			m := make(map[string]int)
			keys := make([]uint64, 100000)
			x := uint64(p + 1)
			var buf []byte
			for i := range keys {
				x = x*6364136223846793005 + 1442695040888963407
				keys[i] = x
				if i%4 == 0 {
					buf = strconv.AppendUint(buf[:0], x>>20, 36)
					m[string(buf)] = i
				}
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
			h := sha256.New()
			block := make([]byte, 64<<10)
			for i := 0; i < 32; i++ {
				h.Write(block)
			}
			for i := 0; i < 12_000_000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
			atomic.AddUint64(&yardstickSink, x+uint64(len(m))+uint64(h.Sum(nil)[0])+keys[0])
		}(p)
	}
	wg.Wait()
	return float64(yardstickNominal) / float64(time.Since(t0))
}

// sample is one timed span: what it cost the process and how many
// impressions it moved. Allocation metrics are ratios of whole-span
// totals; they do not depend on the machine's speed.
type sample struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	imps    int
	// The collector's share, for the traced run's gc.* numbers.
	gcCycles uint32
	gcPause  time.Duration
	gcCPU    time.Duration
}

// meter brackets a timed span with the process-wide counters the
// operator pays for: user+sys CPU (getrusage, so GC workers and the
// load generator are included) and heap allocation counts.
type meter struct {
	t0    time.Time
	cpu   time.Duration
	gcCPU time.Duration
	ms    runtime.MemStats
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms)
	m.gcCPU = gcCPUSeconds()
	m.cpu = cpuTime()
	m.t0 = time.Now()
	return m
}

func (m *meter) stop(imps int) sample {
	wall := time.Since(m.t0)
	cpu := cpuTime() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return sample{
		wall:    wall,
		cpu:     cpu,
		mallocs: ms.Mallocs - m.ms.Mallocs,
		bytes:   ms.TotalAlloc - m.ms.TotalAlloc,
		imps:    imps,

		gcCycles: ms.NumGC - m.ms.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs - m.ms.PauseTotalNs),
		gcCPU:    gcCPUSeconds() - m.gcCPU,
	}
}

// liveHeap is HeapAlloc after two collections: the second one empties
// the sync.Pool victim caches the first one filled, so pooled scratch
// does not count as state held.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// total is the windows' samples added up.
func total(ws []window) sample {
	var t sample
	for _, w := range ws {
		t.add(w.sample)
	}
	return t
}

// add accumulates another span into s (the gc fields included).
func (s *sample) add(o sample) {
	s.wall += o.wall
	s.cpu += o.cpu
	s.mallocs += o.mallocs
	s.bytes += o.bytes
	s.imps += o.imps
	s.gcCycles += o.gcCycles
	s.gcPause += o.gcPause
	s.gcCPU += o.gcCPU
}
