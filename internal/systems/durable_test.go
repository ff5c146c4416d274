package systems

import (
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/wal"
)

// TestGateBacklogVisibleDuringReplay is the regression for Backlog
// undercounting while a Restart drain is in flight: the swapped-out batch
// used to be invisible, so Backlog reported 0 with work still pending.
func TestGateBacklogVisibleDuringReplay(t *testing.T) {
	var g NodeGate
	g.Crash()
	release := make(chan struct{})
	entered := make(chan struct{})
	for i := 0; i < 3; i++ {
		i := i
		g.Do(func() {
			if i == 0 {
				close(entered)
				<-release
			}
		})
	}
	done := make(chan int)
	go func() { done <- g.Restart() }()
	<-entered // drain is mid-batch: backlog slice was swapped out
	if got := g.Backlog(); got != 3 {
		t.Fatalf("Backlog during replay = %d, want 3 (in-flight batch counted)", got)
	}
	close(release)
	if n := <-done; n != 3 {
		t.Fatalf("Restart replayed %d, want 3", n)
	}
	if got := g.Backlog(); got != 0 {
		t.Fatalf("Backlog after replay = %d, want 0", got)
	}
}

// TestGateDurablePlainPathMatchesNodeGate pins that a never-Enabled
// DurableGate behaves exactly like NodeGate: immediate apply, buffered
// replay in order, idempotent hooks, zero stats.
func TestGateDurablePlainPathMatchesNodeGate(t *testing.T) {
	var g DurableGate
	var got []int
	add := func(v int) func() { return func() { got = append(got, v) } }
	g.Do(clock.Handle{}, add(1))
	g.Commit(clock.Handle{}, 5, add(2))
	if !g.Crash() || g.Crash() {
		t.Fatal("Crash must report true once, then no-op")
	}
	g.Do(clock.Handle{}, add(3))
	if g.Backlog() != 1 {
		t.Fatalf("backlog = %d, want 1", g.Backlog())
	}
	if n := g.Restart(clock.Handle{}); n != 1 {
		t.Fatalf("Restart replayed %d, want 1", n)
	}
	if g.Restart(clock.Handle{}) != 0 {
		t.Fatal("Restart on an up node must be a no-op")
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("order = %v, want 1..3", got)
		}
	}
	if st := g.Stats(); st != (RecoveryStats{}) {
		t.Fatalf("stats without a log = %+v, want zero", st)
	}
}

// TestGateDurableReplayCostScalesWithLogLength pins the tentpole's core
// property: restart cost is real and grows with the number of records
// committed before the crash.
func TestGateDurableReplayCostScalesWithLogLength(t *testing.T) {
	run := func(commits int) (float64, RecoveryStats) {
		clk := clock.NewVirtual(time.Unix(0, 0))
		var g DurableGate
		g.Enable(clk, wal.New("n0", wal.Options{Fsync: wal.FsyncAlways}, clk))
		h := clock.Register(clk, "n0")
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < commits; i++ {
				g.Commit(h, 1, func() {})
			}
			g.Crash()
			g.Restart(h)
		}()
		for {
			select {
			case <-done:
				st := g.Stats()
				return st.ReplaySec, st
			default:
				clk.Advance(time.Millisecond)
			}
		}
	}
	small, _ := run(10)
	large, st := run(100)
	if small <= 0 || large <= small {
		t.Fatalf("ReplaySec small=%v large=%v, want 0 < small < large", small, large)
	}
	if st.ReplayedRecords != 100 {
		t.Fatalf("replayed %d records, want 100", st.ReplayedRecords)
	}
	if st.LogRecords != 100 || st.LogBytes == 0 || st.Fsyncs != 100 {
		t.Fatalf("log stats = %+v", st)
	}
}

// TestGateDurableCrashLosesUnsyncedTail pins that with a lazy fsync policy
// a crash drops the pending tail and restart re-fetches it from peers.
func TestGateDurableCrashLosesUnsyncedTail(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	var g DurableGate
	g.Enable(clk, wal.New("n0", wal.Options{Fsync: wal.FsyncBatch, BatchRecords: 4}, clk))
	h := clock.Register(clk, "n0")
	done := make(chan RecoveryStats)
	go func() {
		for i := 0; i < 6; i++ { // 4 synced, 2 pending
			g.Commit(h, 1, func() {})
		}
		g.Crash()
		g.Restart(h)
		done <- g.Stats()
	}()
	var st RecoveryStats
	for {
		select {
		case st = <-done:
		default:
			clk.Advance(time.Millisecond)
			continue
		}
		break
	}
	if st.LostRecords != 2 {
		t.Fatalf("lost %d records, want the 2 un-synced", st.LostRecords)
	}
	if st.ReplayedRecords != 4 {
		t.Fatalf("replayed %d, want the 4 durable", st.ReplayedRecords)
	}
	if st.RefetchedRecords != 2 || st.RefetchSec <= 0 {
		t.Fatalf("refetch = %d records / %v sec, want 2 records at positive cost", st.RefetchedRecords, st.RefetchSec)
	}
}

// TestGateDurableCrashDuringReplayStaysDown pins the crash-during-replay
// contract: the drain stops before the next item, the unapplied suffix is
// preserved in order, the node stays down, and a second Restart completes.
func TestGateDurableCrashDuringReplayStaysDown(t *testing.T) {
	var g DurableGate // plain path: the drain mechanics are log-independent
	var got []int
	g.Crash()
	entered := make(chan struct{})
	release := make(chan struct{})
	for i := 1; i <= 4; i++ {
		i := i
		g.Do(clock.Handle{}, func() {
			if i == 1 {
				close(entered)
				<-release
			}
			got = append(got, i)
		})
	}
	done := make(chan int)
	go func() { done <- g.Restart(clock.Handle{}) }()
	<-entered
	if !g.Crash() {
		t.Fatal("crash during replay must report true (it interrupts recovery)")
	}
	close(release)
	n := <-done
	if n != 1 {
		t.Fatalf("interrupted Restart applied %d items, want 1", n)
	}
	if !g.Down() {
		t.Fatal("node must stay down after a crash mid-replay")
	}
	if got := g.Backlog(); got != 3 {
		t.Fatalf("backlog after interrupt = %d, want the 3 unapplied", got)
	}
	if n := g.Restart(clock.Handle{}); n != 3 {
		t.Fatalf("second Restart applied %d, want 3", n)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("order = %v, want 1..4 (suffix preserved in order)", got)
		}
	}
	if g.Down() {
		t.Fatal("node must be up after the completing Restart")
	}
}

// TestGateDurableStatsAddSub sanity-checks the fold arithmetic the runner
// uses for per-repetition deltas.
func TestGateDurableStatsAddSub(t *testing.T) {
	a := RecoveryStats{LogRecords: 10, LogBytes: 1000, Fsyncs: 3, ReplayedRecords: 4, ReplaySec: 0.5}
	b := RecoveryStats{LogRecords: 4, LogBytes: 400, Fsyncs: 1, ReplayedRecords: 1, ReplaySec: 0.1}
	sum := b.Add(a.Sub(b))
	if sum != a {
		t.Fatalf("b + (a - b) = %+v, want %+v", sum, a)
	}
}
