package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"github.com/coconut-bench/coconut/internal/systems"
)

// TestVirtualTimeBitDeterminism is the determinism contract's pin: the
// same registry scenario run twice under the virtual clock at the same
// seed produces byte-identical Outcome JSON. Everything a run measures —
// per-window timelines, latency sums, conflict breakdowns — must
// reproduce exactly, because under AutoVirtual the scheduler order is a
// pure function of the seed. Only Timings (wall-clock accounting) is
// excluded; it measures the host machine, not the simulation.
func TestVirtualTimeBitDeterminism(t *testing.T) {
	sc, err := ScenarioByName("contention-under-chaos")
	if err != nil {
		t.Fatal(err)
	}
	sc.Systems = []string{systems.NameQuorum}
	opts := Options{Scale: 0.004, SendSeconds: 120, GraceSeconds: 60,
		Repetitions: 1, Seed: 42, Time: "virtual"}

	requireSameJSON(t, virtualOutcomeJSON(t, sc, opts), virtualOutcomeJSON(t, sc, opts))
}

// TestVirtualTimeIndependentOfGOMAXPROCS pins that a virtual-time run does
// not depend on the host's core count: the engine's actor set and its
// schedule must be the same at GOMAXPROCS 1 and 4, so Outcome JSON
// recorded on one machine reproduces on another. All seven systems run.
func TestVirtualTimeIndependentOfGOMAXPROCS(t *testing.T) {
	sc, err := ScenarioByName("contention-under-chaos")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Scale: 0.004, SendSeconds: 120, GraceSeconds: 60,
		Repetitions: 1, Seed: 42, Time: "virtual"}

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	one := virtualOutcomeJSON(t, sc, opts)
	runtime.GOMAXPROCS(4)
	four := virtualOutcomeJSON(t, sc, opts)
	requireSameJSON(t, one, four)
}

// virtualOutcomeJSON runs sc under opts and returns its Outcome JSON
// without Timings, the wall-clock accounting that measures the host
// machine, not the simulation.
func virtualOutcomeJSON(t *testing.T, sc Scenario, opts Options) []byte {
	t.Helper()
	oc, err := Run(context.Background(), sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(oc.Timings) != len(oc.Rows) {
		t.Fatalf("timings = %d, want one per row (%d)", len(oc.Timings), len(oc.Rows))
	}
	for _, tm := range oc.Timings {
		if tm.SimSeconds <= 0 {
			t.Fatalf("%s: simulated no time (%+v)", tm.Cell, tm)
		}
	}
	oc.Timings = nil
	enc, err := json.MarshalIndent(oc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// requireSameJSON fails at the first line where a and b differ, so a
// divergence is debuggable.
func requireSameJSON(t *testing.T, a, b []byte) {
	t.Helper()
	if bytes.Equal(a, b) {
		return
	}
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range al {
		if i >= len(bl) || !bytes.Equal(al[i], bl[i]) {
			t.Fatalf("outcome JSON diverged at line %d:\n  run A: %s\n  run B: %s", i+1, al[i], bl[i])
		}
	}
	t.Fatalf("outcome JSON diverged in length: %d vs %d bytes", len(a), len(b))
}

// TestVirtualTimeMatchesRealClock cross-checks the two clocks: the same
// scenario at the same seed must land on the same aggregate accounting
// whether time is real or simulated, within the scheduler-jitter
// tolerance the real clock itself needs between two of its own runs
// (mirroring TestEngineSeedStability's bounds).
func TestVirtualTimeMatchesRealClock(t *testing.T) {
	partitionHeal, err := ScenarioByName("faults-partition-heal")
	if err != nil {
		t.Fatal(err)
	}
	partitionHeal.Systems = []string{systems.NameFabric}

	grid, err := ScenarioByName("contention-grid")
	if err != nil {
		t.Fatal(err)
	}
	grid.Systems = []string{systems.NameQuorum}
	grid.Workload.Mixes = []string{"ycsb-a"}
	grid.Workload.Skews = []string{"zipfian", "partitioned"}

	drift := func(x, y float64) float64 {
		if x < y {
			x, y = y, x
		}
		if x == 0 {
			return 0
		}
		return (x - y) / x
	}

	for _, sc := range []Scenario{partitionHeal, grid} {
		opts := Options{Scale: 0.004, SendSeconds: 120, GraceSeconds: 60,
			Repetitions: 1, Seed: 42}
		real, err := Run(context.Background(), sc, opts)
		if err != nil {
			t.Fatalf("%s under real clock: %v", sc.Name, err)
		}
		if len(real.Timings) != 0 {
			t.Fatalf("%s: real-clock run reported virtual timings: %+v", sc.Name, real.Timings)
		}
		opts.Time = "virtual"
		virt, err := Run(context.Background(), sc, opts)
		if err != nil {
			t.Fatalf("%s under virtual clock: %v", sc.Name, err)
		}
		if len(virt.Rows) != len(real.Rows) {
			t.Fatalf("%s: rows %d (virtual) vs %d (real)", sc.Name, len(virt.Rows), len(real.Rows))
		}
		for i := range real.Rows {
			r, v := real.Rows[i].Result, virt.Rows[i].Result
			label := sc.Name + "/" + real.Rows[i].System + "/" + real.Rows[i].Benchmark
			if v.Received.Mean <= 0 {
				t.Fatalf("%s: virtual run received nothing", label)
			}
			if d := drift(r.Received.Mean, v.Received.Mean); d > 0.2 {
				t.Errorf("%s: received drifted %.0f%% between clocks: %.0f (real) vs %.0f (virtual)",
					label, 100*d, r.Received.Mean, v.Received.Mean)
			}
			if d := drift(r.Valid.Mean, v.Valid.Mean); d > 0.25 {
				t.Errorf("%s: goodput drifted %.0f%% between clocks: %.0f (real) vs %.0f (virtual)",
					label, 100*d, r.Valid.Mean, v.Valid.Mean)
			}
			if d := drift(r.MTPS.Mean, v.MTPS.Mean); d > 0.2 {
				t.Errorf("%s: MTPS drifted %.0f%% between clocks: %.1f (real) vs %.1f (virtual)",
					label, 100*d, r.MTPS.Mean, v.MTPS.Mean)
			}
			// Abort rates sit near zero on healthy cells, so bound the
			// absolute gap rather than a relative drift.
			if gap := r.AbortRate.Mean - v.AbortRate.Mean; gap > 0.1 || gap < -0.1 {
				t.Errorf("%s: abort rate gap %.2f between clocks: %.2f (real) vs %.2f (virtual)",
					label, gap, r.AbortRate.Mean, v.AbortRate.Mean)
			}
		}
	}
}
