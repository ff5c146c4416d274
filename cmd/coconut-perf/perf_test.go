package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/experiments"
)

func TestMetricNameGrammar(t *testing.T) {
	for _, name := range []string{"cpu_s", "setup_s", "cpu_share.clock.goid", "cell_wall_s.corda-os", "9lives", strings.Repeat("a", 64)} {
		if !metricName.MatchString(name) {
			t.Errorf("%q rejected, want accepted", name)
		}
	}
	for _, name := range []string{"", "_x", ".x", "-x", "a b", "a/b", "a:b", "é", strings.Repeat("a", 65)} {
		if metricName.MatchString(name) {
			t.Errorf("%q accepted, want rejected", name)
		}
	}
	// Every generated name must fit the grammar too.
	for _, l := range layers {
		if n := "cpu_share." + l; !metricName.MatchString(n) {
			t.Errorf("layer metric %q rejected", n)
		}
	}
	for _, s := range experiments.AllSystems {
		if n := "cell_wall_s." + slug(s); !metricName.MatchString(n) {
			t.Errorf("system metric %q rejected", n)
		}
	}
}

func TestDigestIgnoresTimings(t *testing.T) {
	row := experiments.OutcomeRow{System: "Fabric", Benchmark: "DoNothing", Result: coconut.Result{MTPS: coconut.Stats{Mean: 100}}}
	a := experiments.Outcome{Rows: []experiments.OutcomeRow{row}, Timings: []experiments.CellTiming{{Cell: "x", WallSeconds: 1}}}
	b := a
	b.Timings = []experiments.CellTiming{{Cell: "x", WallSeconds: 2, Speedup: 3}}
	da, err := digest(a)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := digest(b)
	if da != db {
		t.Fatalf("digest changed with Timings alone: %s vs %s", da, db)
	}
	c := a
	c.Rows = []experiments.OutcomeRow{row}
	c.Rows[0].Result.MTPS.Mean = 101
	if dc, _ := digest(c); dc == da {
		t.Fatal("digest ignored a change in a row")
	}
}

const mod = "github.com/coconut-bench/coconut/internal/"

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.futex", "runtime.futexwakeup", mod + "clock.(*autoCore).scheduleLocked", mod + "network.(*Transport).worker"}, "clock"},
		{[]string{"runtime.Stack", mod + "clock.goid", mod + "clock.(*Mailbox[...]).Send", mod + "consensus/pbft.(*Node).run"}, "clock.goid"},
		{[]string{"crypto/sha256.block", mod + "consensus/pbft.(*Node).digest", mod + "systems/fabric.(*Driver).order"}, "consensus"},
		{[]string{"runtime.mallocgc", mod + "systems.(*Hub).Commit"}, "systems"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime.sched"},
		{[]string{"runtime._System"}, "runtime.sched"},
		{[]string{"main.main", "runtime.main"}, "unattributed"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// pb is a minimal protobuf encoder for building fixed profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(x uint64) {
	for x >= 0x80 {
		b.WriteByte(byte(x) | 0x80)
		x >>= 7
	}
	b.WriteByte(byte(x))
}

func (b *pb) uint(field int, x uint64) { b.varint(uint64(field)<<3 | 0); b.varint(x) }

func (b *pb) bytes(field int, msg []byte) {
	b.varint(uint64(field)<<3 | 2)
	b.varint(uint64(len(msg)))
	b.Write(msg)
}

func (b *pb) packed(field int, xs ...uint64) {
	var p pb
	for _, x := range xs {
		p.varint(x)
	}
	b.bytes(field, p.Bytes())
}

// TestFoldProfile folds a fixed profile: three functions, three locations
// (one with an inlined frame), and samples in both the packed and the
// unpacked encoding of their location lists.
func TestFoldProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		mod + "clock.goid", mod + "clock.(*Mailbox[...]).Send", mod + "wal.(*Log).Append", "runtime.gcBgMarkWorker"}
	var p pb
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} {
		var m pb
		m.uint(1, st[0])
		m.uint(2, st[1])
		p.bytes(1, m.Bytes())
	}
	// functions 1..4 name strings 5..8.
	for i := uint64(1); i <= 4; i++ {
		var m pb
		m.uint(1, i)
		m.uint(2, i+4)
		p.bytes(5, m.Bytes())
	}
	// location 1: goid inlined into Send (leaf first); 2: WAL; 3: GC.
	for _, loc := range []struct {
		id  uint64
		fns []uint64
	}{{1, []uint64{1, 2}}, {2, []uint64{3}}, {3, []uint64{4}}} {
		var m pb
		m.uint(1, loc.id)
		for _, fn := range loc.fns {
			var line pb
			line.uint(1, fn)
			m.bytes(4, line.Bytes())
		}
		p.bytes(4, m.Bytes())
	}
	sample := func(packed bool, ns uint64, locs ...uint64) {
		var m pb
		if packed {
			m.packed(1, locs...)
			m.packed(2, 1, ns)
		} else {
			for _, l := range locs {
				m.uint(1, l)
			}
			m.uint(2, 1)
			m.uint(2, ns)
		}
		p.bytes(2, m.Bytes())
	}
	sample(true, 30, 1, 2)  // goid, innermost module frame
	sample(false, 20, 2, 1) // WAL leaf, clock above it
	sample(true, 10, 3)     // GC worker
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.Bytes())
	zw.Close()

	var l layerCPU
	if err := l.foldProfile(gz.Bytes()); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"clock": 30, "clock.goid": 30, "wal": 20, "runtime.gc": 10}
	for layer, ns := range want {
		if l.ns[layer] != ns {
			t.Errorf("%s = %v ns, want %v", layer, l.ns[layer], ns)
		}
	}
	if l.samples != 3 || l.attributed != 3 {
		t.Errorf("samples %v attributed %v, want 3 and 3", l.samples, l.attributed)
	}
}

func TestDecodeProfileRejectsTruncatedInput(t *testing.T) {
	var p pb
	p.bytes(6, []byte("string"))
	if _, err := decodeProfile(p.Bytes()[:len(p.Bytes())-2]); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}

func farFuture() time.Time { return clock.Walltime().Add(time.Hour) }

// quickOptions keeps engine cells short for tests.
var quickOptions = experiments.Options{Scale: 0.01, SendSeconds: 20, GraceSeconds: 5, Seed: 7, Time: "virtual"}

func TestFailedCellIsCountedAndTheRestRun(t *testing.T) {
	// The unknown system fails the engine's validation of its own cell;
	// the Fabric cell after it must still run.
	sc := experiments.Scenario{Name: "t", Systems: []string{"Nope", "Fabric"}, Benchmarks: []string{"DoNothing"}, Rate: 200}
	b := &bench{w: workload{name: "t"}, sc: sc, opts: quickOptions, deadline: farFuture(), stderr: &bytes.Buffer{}}
	p := b.runPass(nil)
	res := b.finish([]pass{p})
	if res.Attempted != 2 || res.Failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", res.Attempted, res.Failed)
	}
	if res.Correct {
		t.Fatal("a run with a failed cell reported correct")
	}
	if len(p.rows) != 1 || p.rows[0].System != "Fabric" {
		t.Fatalf("rows %+v, want the one Fabric row", p.rows)
	}
	if p.sim <= 0 || math.IsNaN(p.sim) {
		t.Fatalf("sim seconds %v, want > 0", p.sim)
	}
}

// TestDifferingPassIsIncorrectAndNamesTheCell checks that a pass whose
// outcome differs from the first makes the run incorrect, and that the
// problem names the cell that differs.
func TestDifferingPassIsIncorrectAndNamesTheCell(t *testing.T) {
	sc := experiments.Scenario{Name: "t", Systems: []string{"Fabric", "Diem"}, Benchmarks: []string{"DoNothing"}, Rate: 200}
	b := &bench{w: workload{name: "t"}, sc: sc, opts: quickOptions, deadline: farFuture(), stderr: &bytes.Buffer{}}
	first := b.runPass(nil)
	second := b.runPass(nil)
	if b.digests[0] != b.digests[1] {
		t.Fatalf("two passes of one seed differ: %v", b.problems)
	}
	// Stand in for a pass in which the Diem cell came out differently.
	second.rows[1].Result.Repetitions[0].ReceivedNoT++
	b.digests, b.cellDigests = b.digests[:1], b.cellDigests[:1]
	b.recordDigests(second)
	res := b.finish([]pass{first, second})
	if res.Correct {
		t.Fatal("a run whose passes differ reported correct")
	}
	if len(b.problems) != 1 || !strings.Contains(b.problems[0], "cell 2 (Diem/DoNothing") || strings.Contains(b.problems[0], "Fabric") {
		t.Fatalf("problems %q, want one naming cell 2 (Diem) alone", b.problems)
	}
}

// TestSplitMatchesWholeScenario checks that running a scenario one cell at
// a time yields the rows experiments.Run gives for the whole scenario.
func TestSplitMatchesWholeScenario(t *testing.T) {
	sc, err := experiments.ScenarioByName("recovery-cost")
	if err != nil {
		t.Fatal(err)
	}
	sc.Systems = []string{"Fabric", "Diem"}
	sc.WAL.CrashPoints = []float64{0.45, 0.6}
	cells := unitScenarios(sc)
	if len(cells) != 2*2*2 {
		t.Fatalf("%d cells, want 8", len(cells))
	}
	whole, err := experiments.Run(context.Background(), sc, quickOptions)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{w: workload{name: "t"}, sc: sc, opts: quickOptions, deadline: farFuture(), stderr: &bytes.Buffer{}}
	p := b.runPass(nil)
	if b.failed != 0 {
		t.Fatalf("split run failed: %v", b.problems)
	}
	want, _ := digest(*whole)
	if b.digests[0] != want {
		t.Fatal("split rows differ from the whole scenario's rows")
	}
	if len(p.rows) != len(whole.Rows) {
		t.Fatalf("%d rows, want %d", len(p.rows), len(whole.Rows))
	}
}

func TestTracedRunKeepsTheOutcome(t *testing.T) {
	sc := experiments.Scenario{Name: "t", Systems: []string{"Fabric"}, Benchmarks: []string{"DoNothing"}, Rate: 200}
	b := &bench{w: workload{name: "t"}, sc: sc, opts: quickOptions, deadline: farFuture(), stderr: &bytes.Buffer{}}
	res := b.tracedRun(1e-3)
	if !res.Correct || res.Attempted != 2 {
		t.Fatalf("traced run: correct %v attempted %d, problems %v", res.Correct, res.Attempted, b.problems)
	}
	for _, name := range []string{"spans.stage", "spans.net", "spans.consensus", "tx.confirmed", "trace.overhead"} {
		if v := res.Metrics[name].Value; v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
}
