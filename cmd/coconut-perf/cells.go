package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/experiments"
)

// unitScenarios splits sc into one scenario per engine cell, in the order
// experiments.Run expands them, so that one failing cell is counted and the
// rest still run. It splits the axes the benchmark workloads use: systems,
// benchmarks, workload mixes and skews, and the WAL snapshot and crash
// axes. An empty axis is left to the engine's default.
func unitScenarios(sc experiments.Scenario) []experiments.Scenario {
	var out []experiments.Scenario
	add := func(c experiments.Scenario) {
		if c.WAL == nil {
			out = append(out, c)
			return
		}
		for _, snap := range orOne(c.WAL.SnapshotEvery) {
			for _, cp := range orOne(c.WAL.CrashPoints) {
				w := *c.WAL
				w.SnapshotEvery, w.CrashPoints = only(snap), only(cp)
				c := c
				c.WAL = &w
				out = append(out, c)
			}
		}
	}
	if sc.Workload != nil {
		for _, mix := range orOne(sc.Workload.Mixes) {
			for _, skew := range orOne(sc.Workload.Skews) {
				for _, sys := range orOne(sc.Systems) {
					w := *sc.Workload
					w.Mixes, w.Skews = only(mix), only(skew)
					c := sc
					c.Workload, c.Systems = &w, only(sys)
					add(c)
				}
			}
		}
		return out
	}
	for _, sys := range orOne(sc.Systems) {
		for _, bench := range orOne(sc.Benchmarks) {
			c := sc
			c.Systems, c.Benchmarks = only(sys), only(bench)
			add(c)
		}
	}
	return out
}

// orOne returns vs, or one zero value standing for "the engine default"
// when vs is empty.
func orOne[T comparable](vs []T) []T {
	if len(vs) == 0 {
		return make([]T, 1)
	}
	return vs
}

// only turns one axis value back into a list; the zero value keeps the
// engine default.
func only[T comparable](v T) []T {
	var zero T
	if v == zero {
		return nil
	}
	return []T{v}
}

// cellResult is one engine cell run through experiments.Run: its rows and
// timings on success, or the reason it failed.
type cellResult struct {
	outcome *experiments.Outcome
	// start and wall locate the cell on the host clock; start is the
	// engine's progress start event.
	start time.Time
	wall  float64
	err   error
}

// cellTimeout bounds one cell on the host clock: the longest cell of any
// workload takes about a second on a 2-core machine.
const cellTimeout = 30 * time.Second

// runCell runs one single-cell scenario. An error, a panic on the calling
// goroutine, a hang past cellTimeout and a failed outcome check all come
// back as err, so the caller counts the cell as failed and moves on. A
// hung cell's goroutine keeps running until the process exits. A panic on
// a goroutine the simulation starts cannot be caught from here and ends
// the process.
func runCell(sc experiments.Scenario, o experiments.Options) cellResult {
	done := make(chan cellResult, 1)
	go func() {
		var r cellResult
		defer func() {
			if p := recover(); p != nil {
				r.err = fmt.Errorf("cell panicked: %v", p)
			}
			done <- r
		}()
		o.Progress = func(p experiments.Progress) {
			if p.Result == nil {
				r.start = clock.Walltime()
			}
		}
		r.outcome, r.err = experiments.Run(context.Background(), sc, o)
		if !r.start.IsZero() {
			r.wall = clock.Walltime().Sub(r.start).Seconds()
		}
	}()
	timer := clock.New().NewTimer(cellTimeout)
	defer timer.Stop()
	select {
	case r := <-done:
		if r.err == nil {
			r.err = checkCell(r.outcome)
		}
		return r
	case <-timer.C():
		return cellResult{err: fmt.Errorf("cell still running after %v", cellTimeout)}
	}
}

// checkCell is the per-cell outcome check: one row whose every repetition
// offered work, with finite headline numbers.
func checkCell(oc *experiments.Outcome) error {
	if len(oc.Rows) != 1 {
		return fmt.Errorf("cell produced %d rows, want 1", len(oc.Rows))
	}
	r := oc.Rows[0].Result
	if len(r.Repetitions) == 0 {
		return fmt.Errorf("cell %s/%s has no repetitions", r.System, r.Benchmark)
	}
	for i, rep := range r.Repetitions {
		if rep.ExpectedNoT <= 0 {
			return fmt.Errorf("cell %s/%s repetition %d offered no work", r.System, r.Benchmark, i)
		}
	}
	for _, v := range []float64{r.MTPS.Mean, r.MFLS.Mean, r.Goodput.Mean} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("cell %s/%s reports a non-finite metric", r.System, r.Benchmark)
		}
	}
	return nil
}

// digest hashes an outcome's spec and rows. Timings are host wall-clock
// measurements and differ run to run, so they are left out; everything
// else is a pure function of the spec and the seed under virtual time.
func digest(oc experiments.Outcome) (string, error) {
	oc.Timings = nil
	b, err := json.Marshal(oc)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// specHash identifies the scenario spec and engine options a workload ran.
func specHash(sc experiments.Scenario, o experiments.Options) string {
	b, _ := json.Marshal(struct { // a Scenario and plain options always marshal
		Scenario experiments.Scenario
		Options  experiments.Options
	}{sc, o})
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// Shed codes name work a driver drops without telling the client; the
// rest of Result.Conflicts are client-observed aborts already counted in
// ReceivedNoT.
var shedCodes = []string{"conflict-excluded", "batch-discarded", "double-spend"}

// workCounts are the simulated, deterministic counts of one pass.
type workCounts struct {
	offered, confirmed, aborted float64
	// violating lists the rows whose confirmed plus shed payloads exceed
	// the offered payloads.
	violating []string
}

func countWork(rows []experiments.OutcomeRow) workCounts {
	var w workCounts
	for _, row := range rows {
		var offered, confirmed, shed float64
		for _, rep := range row.Result.Repetitions {
			offered += float64(rep.ExpectedNoT)
			confirmed += float64(rep.ReceivedNoT)
			w.aborted += float64(rep.ReceivedNoT - rep.ValidNoT)
			for _, code := range shedCodes {
				shed += float64(rep.Conflicts[code])
			}
		}
		w.offered += offered
		w.confirmed += confirmed
		if confirmed+shed > offered {
			w.violating = append(w.violating, fmt.Sprintf("%s: confirmed %.0f + shed %.0f > offered %.0f",
				rowLabel(row), confirmed, shed, offered))
		}
	}
	return w
}

// rowLabel names the cell a row came from.
func rowLabel(row experiments.OutcomeRow) string {
	return fmt.Sprintf("%s/%s %s", row.System, row.Benchmark, row.WAL)
}

// paperFit compares rows carrying a paper reference with it: the median
// |ln(sim MTPS / paper MTPS)| over rows with a nonzero paper MTPS, and the
// number of failing Figure 3 shape checks. Both are 0 for a workload with
// no paper reference.
func paperFit(sc experiments.Scenario, rows []experiments.OutcomeRow) (logErr float64, shapeFails int) {
	var errs []float64
	for _, row := range rows {
		if row.Paper == nil || row.Paper.MTPS <= 0 {
			continue
		}
		errs = append(errs, math.Abs(math.Log(row.Result.MTPS.Mean/row.Paper.MTPS)))
	}
	if sc.PaperRef == "figure3" {
		for _, line := range experiments.ShapeChecks(rows) {
			if strings.HasPrefix(line, "FAIL") {
				shapeFails++
			}
		}
	}
	return median(errs), shapeFails
}

// median returns the middle value of vs (the mean of the middle two for
// an even count), or 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
