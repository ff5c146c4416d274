package main

import (
	"bytes"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/trace"
)

// cpuSeconds returns the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// runtimeCounters are the runtime/metrics values the traced run diffs
// around each cell.
type runtimeCounters struct {
	gcCycles, gcCPU, allocBytes, allocObjects, mutexWait float64
	// schedLat is the histogram of how long goroutines waited runnable
	// before running; its bucket edges are fixed for the process.
	schedLat []uint64
}

var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

// schedBuckets are the bucket edges of /sched/latencies, read once.
var schedBuckets []float64

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	c := runtimeCounters{
		gcCycles:     num(s[0].Value),
		gcCPU:        num(s[1].Value),
		allocBytes:   num(s[2].Value),
		allocObjects: num(s[3].Value),
		mutexWait:    num(s[4].Value),
	}
	if s[5].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[5].Value.Float64Histogram()
		c.schedLat = append([]uint64(nil), h.Counts...)
		if schedBuckets == nil {
			schedBuckets = append([]float64(nil), h.Buckets...)
		}
	}
	return c
}

// add accumulates the difference after - before into c.
func (c *runtimeCounters) add(before, after runtimeCounters) {
	c.gcCycles += after.gcCycles - before.gcCycles
	c.gcCPU += after.gcCPU - before.gcCPU
	c.allocBytes += after.allocBytes - before.allocBytes
	c.allocObjects += after.allocObjects - before.allocObjects
	c.mutexWait += after.mutexWait - before.mutexWait
	if c.schedLat == nil {
		c.schedLat = make([]uint64, len(after.schedLat))
	}
	for i := range after.schedLat {
		if i < len(before.schedLat) && i < len(c.schedLat) {
			c.schedLat[i] += after.schedLat[i] - before.schedLat[i]
		}
	}
}

// wakeups is the number of times a goroutine went from runnable to
// running.
func (c runtimeCounters) wakeups() float64 {
	var n uint64
	for _, v := range c.schedLat {
		n += v
	}
	return float64(n)
}

// schedQuantile returns the q-quantile of the runnable wait, in
// microseconds, as the upper edge of the bucket that holds it.
func (c runtimeCounters) schedQuantile(q float64) float64 {
	total := c.wakeups()
	if total == 0 {
		return 0
	}
	var seen float64
	for i, v := range c.schedLat {
		seen += float64(v)
		if seen >= q*total {
			edge := schedBuckets[i+1]
			if math.IsInf(edge, 1) {
				edge = schedBuckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}

// peakSampler records the peaks that readings at cell boundaries miss:
// the goroutine count and the live heap, read every samplePeriod while a
// pass runs.
type peakSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	live []metrics.Sample

	goroutines int
	// liveHeap is the largest heap the runtime found live at the end of a
	// GC cycle. Unlike the resident set, it does not depend on when the
	// collector happened to run.
	liveHeap uint64
}

// samplePeriod is how often the sampler reads; GC cycles and cells are
// tens of milliseconds apart or more.
const samplePeriod = 2 * time.Millisecond

func startPeakSampler() *peakSampler {
	s := &peakSampler{stop: make(chan struct{}), live: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	s.read()
	tk := clock.New().NewTicker(samplePeriod)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer tk.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tk.C():
				s.read()
			}
		}
	}()
	return s
}

func (s *peakSampler) read() {
	if n := runtime.NumGoroutine(); n > s.goroutines {
		s.goroutines = n
	}
	metrics.Read(s.live)
	if v := s.live[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > s.liveHeap {
		s.liveHeap = v.Uint64()
	}
}

// Stop ends the sampler; its peaks may be read once it returns.
func (s *peakSampler) Stop() {
	close(s.stop)
	s.wg.Wait()
	s.read()
}

// spanCounts are the tracer's spans by category, plus the two WAL span
// names.
type spanCounts struct {
	stage, net, consensus, walAppend, walFsync float64
}

// countSpans tallies a tracer's spans from its Chrome trace export, one
// event per line, without holding the export in memory.
func countSpans(t *trace.Tracer) (spanCounts, error) {
	w := &spanCounter{}
	if err := t.WriteJSON(w); err != nil {
		return spanCounts{}, err
	}
	w.line(w.rest)
	return w.c, nil
}

// spanCounter is an io.Writer that parses WriteJSON's span lines as they
// stream past.
type spanCounter struct {
	rest []byte
	c    spanCounts
}

func (w *spanCounter) Write(p []byte) (int, error) {
	n := len(p)
	for {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			w.rest = append(w.rest, p...)
			return n, nil
		}
		if len(w.rest) > 0 {
			w.rest = append(w.rest, p[:i]...)
			w.line(w.rest)
			w.rest = w.rest[:0]
		} else {
			w.line(p[:i])
		}
		p = p[i+1:]
	}
}

var (
	catKey  = []byte(`"cat":"`)
	walPush = []byte(`{"name":"wal:append"`)
	walSync = []byte(`{"name":"wal:fsync"`)
)

func (w *spanCounter) line(l []byte) {
	i := bytes.Index(l, catKey)
	if i < 0 {
		return // process and thread metadata events carry no category
	}
	cat := l[i+len(catKey):]
	if j := bytes.IndexByte(cat, '"'); j >= 0 {
		cat = cat[:j]
	}
	switch string(cat) {
	case "stage":
		w.c.stage++
	case "net":
		w.c.net++
	case "consensus":
		w.c.consensus++
	case "wal":
		switch {
		case bytes.HasPrefix(l, walPush):
			w.c.walAppend++
		case bytes.HasPrefix(l, walSync):
			w.c.walFsync++
		}
	}
}

func (c *spanCounts) add(o spanCounts) {
	c.stage += o.stage
	c.net += o.net
	c.consensus += o.consensus
	c.walAppend += o.walAppend
	c.walFsync += o.walFsync
}
