// Command coconut-perf is coconut-bench's end-to-end benchmark: it runs a
// named workload, a registry scenario under virtual time, through the
// public experiments.Run API for a fixed host-time budget, checks that the
// simulated outcome is correct, and prints the simulator's speed and cost.
// With -trace 1 it runs the same workload again with a CPU profile, the
// runtime/metrics counters and the span tracer attached, and prints the
// per-layer numbers instead. See NOTES.md for every metric.
//
// Usage (from the repository root):
//
//	bash cmd/coconut-perf/run.sh --workload paper-grid --seed 42 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/experiments"
	"github.com/coconut-bench/coconut/internal/trace"
)

// workload is one benchmark input: a registry scenario at a fixed scale.
type workload struct {
	name, scenario string
	scale          float64
}

// workloads are the benchmark's inputs; NOTES.md says why each is here.
var workloads = []workload{
	{"paper-grid", "figure3", 0.01},
	{"chaos-contention", "contention-under-chaos", 0.05},
	{"crash-recovery", "recovery-cost", 0.01},
}

// referenceSeed is the seed whose outcome digests are recorded below; a
// run at this seed whose digest differs is incorrect.
const referenceSeed = 42

var referenceDigests = map[string]string{
	"paper-grid":       "dc30c13699aa1992cbbeeca475d50d8fea9f69444ee47ab8acff596ac33c6ffa",
	"chaos-contention": "cd86083655cfe07c74a47ed4be644bf1c170e0c3a332f30801516003225854e7",
	"crash-recovery":   "c64018d0efc273069e888235df6d4153a6348f00d518c4baa2181aabee6e2a28",
}

// runBudget bounds one invocation on the host clock, so a run that meets
// hung cells still exits in time; cells not started by then count as
// failed.
const runBudget = 150 * time.Second

// spanCap is the tracer's retention bound for one cell. Spans past it are
// dropped and break the span counts, so it sits far above the largest
// cell's count.
const spanCap = 1 << 22

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("coconut-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", referenceSeed, "seed for every simulated input")
	seconds := fs.Float64("seconds", 30, "host seconds to keep starting passes for")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	probe := fs.Bool("setup-probe", false, "internal: exit once the first cell starts simulating")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "coconut-perf: want -workload one of %s, -trace 0 or 1, and -seconds > 0\n", workloadNames())
		return 2
	}
	sc, err := experiments.ScenarioByName(w.scenario)
	if err != nil {
		fmt.Fprintln(stderr, "coconut-perf:", err)
		return 1
	}
	o := experiments.Options{Scale: w.scale, Seed: *seed, Time: "virtual"}
	if *probe {
		fmt.Fprintln(stderr, "coconut-perf:", runSetupProbe(sc, o, stdout))
		return 1
	}
	b := &bench{w: *w, sc: sc, opts: o, deadline: clock.Walltime().Add(runBudget), stderr: stderr}

	var res result
	if *traced == 1 {
		res = b.tracedRun(*seconds)
	} else {
		res = b.endToEndRun(*seconds)
	}
	prov := provenance(*w, sc, o, *seed, *traced == 1)
	for _, line := range []any{map[string]any{"provenance": prov}, map[string]any{"outcome": b.report}, res} {
		enc := json.NewEncoder(stdout)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(line); err != nil {
			fmt.Fprintln(stderr, "coconut-perf:", err)
			return 1
		}
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricName is the grammar every metric name follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// set records one metric, rejecting a malformed name.
func (r *result) set(name, unit string, v float64) {
	if !metricName.MatchString(name) {
		panic("coconut-perf: bad metric name " + name) // names are constants
	}
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// bench runs one workload's passes and collects what the correctness
// check needs.
type bench struct {
	w        workload
	sc       experiments.Scenario
	opts     experiments.Options
	deadline time.Time
	stderr   io.Writer

	attempted, failed int
	// digests holds each pass's outcome digest and cellDigests the
	// digests of its cells, so a pass that differs can name the cells.
	digests     []string
	cellDigests []map[string]string
	// problems lists every reason the run is not correct.
	problems []string
	report   outcomeReport
}

// outcomeReport is the run's outcome line: the digest to compare across
// commits, and the model outputs the check reports but does not filter.
type outcomeReport struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Passes     int      `json:"passes"`
	Digest     string   `json:"digest"`
	Reference  string   `json:"reference,omitempty"`
	Conserv    int      `json:"conservation_violations"`
	Violating  []string `json:"violating,omitempty"`
	PaperLnErr float64  `json:"paper_mtps_log_err"`
	ShapeFails int      `json:"paper_shape_fails"`
	Problems   []string `json:"problems,omitempty"`
}

// pass is one run of every cell of the workload.
type pass struct {
	wall, cpu, sim float64
	// peakHeapMB is the largest live heap seen during the pass, in MiB.
	peakHeapMB float64
	// cellWall is the host time of the cells, summed per system.
	cellWall map[string]float64
	rows     []experiments.OutcomeRow
	// cellRow maps each row to its cell's index in the pass.
	cellRow []int
	work    workCounts
	// spans are a traced pass's span counts.
	spans spanCounts
}

func (p pass) cellWallTotal() float64 {
	var t float64
	for _, s := range experiments.AllSystems {
		t += p.cellWall[s]
	}
	return t
}

// probe is what a traced pass attaches around each cell.
type probe struct {
	cpu     float64
	rt      runtimeCounters
	layers  layerCPU
	peakGor int
}

// runPass runs every cell once. With pr set, each cell runs with its own
// tracer and CPU profile, and pr accumulates the measurements.
func (b *bench) runPass(pr *probe) pass {
	t0 := clock.Walltime()
	c0 := cpuSeconds()
	p := pass{cellWall: make(map[string]float64)}
	cells := unitScenarios(b.sc)
	sampler := startPeakSampler()
	for i, cell := range cells {
		b.attempted++
		if clock.Walltime().After(b.deadline) {
			b.failCell("cell %d of %s not started: run budget of %v spent", i+1, b.w.name, runBudget)
			continue
		}
		var r cellResult
		if pr == nil {
			r = runCell(cell, b.opts)
		} else {
			var spans spanCounts
			r, spans = b.tracedCell(cell, b.opts, pr)
			p.spans.add(spans)
		}
		if r.err != nil {
			b.failCell("cell %d (%s): %v", i+1, strings.Join(cell.Systems, ","), r.err)
			continue
		}
		p.cellWall[r.outcome.Rows[0].System] += r.wall
		p.rows = append(p.rows, r.outcome.Rows...)
		p.cellRow = append(p.cellRow, i)
		for _, t := range r.outcome.Timings {
			p.sim += t.SimSeconds
		}
	}
	p.wall = clock.Walltime().Sub(t0).Seconds()
	p.cpu = cpuSeconds() - c0
	sampler.Stop()
	p.peakHeapMB = float64(sampler.liveHeap) / (1 << 20)
	if pr != nil && sampler.goroutines > pr.peakGor {
		pr.peakGor = sampler.goroutines
	}
	p.work = countWork(p.rows)
	b.recordDigests(p)
	fmt.Fprintf(b.stderr, "coconut-perf: %s pass %d (traced %t): %.3f wall-s, %.3f cpu-s, %.1f sim-s\n",
		b.w.name, len(b.digests), pr != nil, p.wall, p.cpu, p.sim)
	return p
}

// recordDigests digests a pass's outcome, and each of its cells alone.
func (b *bench) recordDigests(p pass) {
	d, err := digest(experiments.Outcome{Scenario: b.sc, Rows: p.rows})
	if err != nil {
		b.fail("%v", err)
	}
	b.digests = append(b.digests, d)
	cells := make(map[string]string, len(p.rows))
	for k, row := range p.rows {
		d, err := digest(experiments.Outcome{Rows: []experiments.OutcomeRow{row}})
		if err != nil {
			b.fail("%v", err)
		}
		cells[fmt.Sprintf("cell %d (%s)", p.cellRow[k]+1, rowLabel(row))] = d
	}
	b.cellDigests = append(b.cellDigests, cells)
}

// tracedCell runs one cell with a fresh tracer at SampleEvery 1 and a CPU
// profile of this process, and adds what they saw to pr. Folding the
// profile and counting spans happen after the cell's own timing.
func (b *bench) tracedCell(cell experiments.Scenario, o experiments.Options, pr *probe) (cellResult, spanCounts) {
	tr := trace.New(trace.Options{SampleEvery: 1, Cap: spanCap})
	o.Trace = tr
	var prof bytes.Buffer
	before, c0 := readRuntime(), cpuSeconds()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return cellResult{err: fmt.Errorf("cpu profile: %w", err)}, spanCounts{}
	}
	r := runCell(cell, o)
	pprof.StopCPUProfile()
	pr.cpu += cpuSeconds() - c0
	pr.rt.add(before, readRuntime())
	if err := pr.layers.foldProfile(prof.Bytes()); err != nil {
		b.fail("%v", err)
	}
	if n := tr.Dropped(); n > 0 {
		b.fail("tracer dropped %d spans past its cap of %d", n, spanCap)
	}
	spans, err := countSpans(tr)
	if err != nil {
		b.fail("count spans: %v", err)
	}
	return r, spans
}

// fail records a reason the run is not correct.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.problems = append(b.problems, msg)
	fmt.Fprintln(b.stderr, "coconut-perf:", msg)
}

// failCell counts a failed cell and records why.
func (b *bench) failCell(format string, args ...any) {
	b.failed++
	b.fail(format, args...)
}

// passesFor runs passes for seconds of host time: at least one, and no
// further pass once the mean pass so far says it would end past the
// budget or the run budget is spent.
func (b *bench) passesFor(seconds float64, one func()) {
	t0 := clock.Walltime()
	for n := 0; ; n++ {
		elapsed := clock.Walltime().Sub(t0).Seconds()
		if n > 0 && elapsed+elapsed/float64(n) > seconds || clock.Walltime().After(b.deadline) {
			return
		}
		one()
	}
}

// endToEndRun measures the end-to-end metrics with tracing off.
func (b *bench) endToEndRun(seconds float64) result {
	var passes []pass
	var setup []float64
	b.passesFor(seconds, func() {
		passes = append(passes, b.runPass(nil))
		// Probing after every pass spreads the probes over the run, as
		// the passes are.
		s, err := measureSetup(b.w, b.opts.Seed)
		if err != nil {
			b.fail("%v", err)
		}
		setup = append(setup, s...)
	})

	var simRate, txRate, cpu, heap []float64
	for _, p := range passes {
		simRate = append(simRate, p.sim/p.wall)
		txRate = append(txRate, p.work.confirmed/p.wall)
		cpu = append(cpu, p.cpu)
		heap = append(heap, p.peakHeapMB)
	}
	res := b.finish(passes)
	res.set("sim_s_per_wall_s", "s/s", median(simRate))
	res.set("sim_tx_per_wall_s", "tx/s", median(txRate))
	res.set("cpu_s", "s", median(cpu))
	res.set("peak_heap_mb", "MiB", median(heap))
	res.set("setup_s", "s", median(setup))
	return res
}

// tracedRun alternates an untraced and a traced pass and reports the
// per-layer metrics of the traced passes, with the untraced ones as the
// base of trace.overhead and the per-system cell times.
func (b *bench) tracedRun(seconds float64) result {
	var plain, traced []pass
	var pr probe
	b.passesFor(seconds, func() {
		plain = append(plain, b.runPass(nil))
		traced = append(traced, b.runPass(&pr))
	})
	var overhead []float64
	var spans spanCounts
	for i, t := range traced {
		overhead = append(overhead, ratio(t.cellWallTotal(), plain[i].cellWallTotal()))
		spans.add(t.spans)
		if t.spans != traced[0].spans {
			b.fail("span counts differ between traced passes of one seed")
		}
	}
	res := b.finish(append(append([]pass(nil), plain...), traced...))

	n := float64(len(traced))
	work := traced[0].work
	perPass := func(v float64) float64 { return v / n }

	cpuNS := pr.cpu * 1e9
	for _, l := range layers {
		res.set("cpu_share."+l, "fraction", ratio(pr.layers.ns[l], cpuNS))
	}
	res.set("profile.samples", "count", pr.layers.samples)
	res.set("profile.attributed_share", "fraction", ratio(pr.layers.attributed, pr.layers.samples))

	res.set("gc.cycles", "count", perPass(pr.rt.gcCycles))
	res.set("gc.cpu_s", "s", perPass(pr.rt.gcCPU))
	res.set("alloc.bytes_per_tx", "B/tx", ratio(pr.rt.allocBytes, n*work.confirmed))
	res.set("alloc.objects_per_tx", "objects/tx", ratio(pr.rt.allocObjects, n*work.confirmed))
	res.set("sched.wakeups", "count", perPass(pr.rt.wakeups()))
	res.set("sched.wait_p50_us", "us", pr.rt.schedQuantile(0.50))
	res.set("sched.wait_p99_us", "us", pr.rt.schedQuantile(0.99))
	res.set("mutex.wait_s", "s", perPass(pr.rt.mutexWait))
	res.set("goroutines.peak", "count", float64(pr.peakGor))
	res.set("peak_rss_mb", "MiB", peakRSSMB())

	res.set("spans.stage", "count", perPass(spans.stage))
	res.set("spans.net", "count", perPass(spans.net))
	res.set("spans.consensus", "count", perPass(spans.consensus))
	res.set("spans.wal_append", "count", perPass(spans.walAppend))
	res.set("spans.wal_fsync", "count", perPass(spans.walFsync))
	res.set("tx.offered", "count", work.offered)
	res.set("tx.confirmed", "count", work.confirmed)
	res.set("tx.aborted", "count", work.aborted)
	res.set("net.hops_per_tx", "hops/tx", ratio(perPass(spans.net), work.confirmed))
	res.set("wal.fsyncs_per_tx", "fsyncs/tx", ratio(perPass(spans.walFsync), work.confirmed))

	res.set("host_ns_per_net_hop", "ns", ratio(pr.layers.ns["clock"]+pr.layers.ns["network"], spans.net))
	// Each WAL span is one append; an append that synced is named wal:fsync.
	res.set("host_ns_per_wal_append", "ns", ratio(pr.layers.ns["wal"], spans.walAppend+spans.walFsync))
	var plainCPU []float64
	for _, p := range plain {
		plainCPU = append(plainCPU, p.cpu)
	}
	res.set("host_us_per_tx", "us", ratio(median(plainCPU)*1e6, work.confirmed))

	for _, s := range experiments.AllSystems {
		var walls []float64
		for _, p := range plain {
			walls = append(walls, p.cellWall[s])
		}
		res.set("cell_wall_s."+slug(s), "s", median(walls))
	}
	res.set("trace.overhead", "ratio", median(overhead))

	res.set("model.conservation_violations", "count", float64(b.report.Conserv))
	res.set("model.paper_mtps_log_err", "ln-ratio", b.report.PaperLnErr)
	res.set("model.paper_shape_fails", "count", float64(b.report.ShapeFails))
	return res
}

// finish applies the correctness check across the passes: no failed
// cell, one digest in every pass, and at the reference seed the recorded
// digest. It fills the outcome report.
func (b *bench) finish(passes []pass) result {
	rep := &b.report
	rep.Workload, rep.Seed, rep.Passes = b.w.name, b.opts.Seed, len(passes)
	if len(b.digests) > 0 {
		rep.Digest = b.digests[0]
	}
	for i, d := range b.digests {
		if d != rep.Digest {
			b.fail("outcome digest of pass %d differs from pass 1 at one seed; differing cells: %s",
				i+1, strings.Join(differingCells(b.cellDigests[0], b.cellDigests[i]), ", "))
			break
		}
	}
	if b.opts.Seed == referenceSeed {
		rep.Reference = referenceDigests[b.w.name]
		if rep.Reference != "" && rep.Digest != rep.Reference {
			b.fail("outcome digest %s differs from the reference at seed %d", rep.Digest, referenceSeed)
		}
	}
	if len(passes) > 0 {
		p := passes[0]
		rep.Conserv, rep.Violating = len(p.work.violating), p.work.violating
		rep.PaperLnErr, rep.ShapeFails = paperFit(b.sc, p.rows)
	}
	rep.Problems = b.problems
	return result{
		Correct:   len(b.problems) == 0 && b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
	}
}

// differingCells lists, sorted, the cells whose digests differ between
// two passes or that ran in only one of them.
func differingCells(a, b map[string]string) []string {
	var out []string
	for cell, d := range a {
		if b[cell] != d {
			out = append(out, cell)
		}
	}
	for cell := range b {
		if _, ok := a[cell]; !ok {
			out = append(out, cell)
		}
	}
	sort.Strings(out)
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// slug renders a system name as a metric-name component ("Corda OS" ->
// "corda-os").
func slug(s string) string { return strings.ToLower(strings.ReplaceAll(s, " ", "-")) }

// provenance identifies what produced a result.
func provenance(w workload, sc experiments.Scenario, o experiments.Options, seed int64, traced bool) map[string]any {
	commit, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	return map[string]any{
		"workload":   w.name,
		"scenario":   sc.Name,
		"commit":     commit,
		"modified":   modified,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"seed":       seed,
		"spec_hash":  specHash(sc, o),
		"traced":     traced,
	}
}
