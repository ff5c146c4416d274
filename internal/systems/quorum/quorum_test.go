package quorum

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/systems"
)

type collector struct {
	mu     sync.Mutex
	events []systems.Event
}

func (c *collector) add(e systems.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

func (c *collector) snapshot() []systems.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]systems.Event, len(c.events))
	copy(out, c.events)
	return out
}

func (c *collector) wait(t *testing.T, want int, timeout time.Duration) []systems.Event {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.len() >= want {
			return c.snapshot()
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("received %d events, want %d", c.len(), want)
	return nil
}

func newNetwork(t *testing.T, cfg Config) (*Network, *collector) {
	t.Helper()
	if cfg.BlockPeriod == 0 {
		cfg.BlockPeriod = 10 * time.Millisecond
	}
	n := New(cfg)
	col := &collector{}
	n.Subscribe("client-1", col.add)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Stop(clock.Handle{}) })
	return n, col
}

func TestNameAndNodeCount(t *testing.T) {
	n := New(Config{})
	if n.Name() != systems.NameQuorum || n.NodeCount() != 4 {
		t.Fatalf("name=%q nodes=%d", n.Name(), n.NodeCount())
	}
}

func TestCommitsEndToEnd(t *testing.T) {
	n, col := newNetwork(t, Config{})
	for i := 0; i < 5; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
		if err := n.Submit(i, tx); err != nil {
			t.Fatal(err)
		}
	}
	events := col.wait(t, 5, 10*time.Second)
	for _, e := range events {
		if !e.Committed || !e.ValidOK {
			t.Fatalf("event = %+v", e)
		}
	}
}

func TestOrderExecuteAppliesState(t *testing.T) {
	n, col := newNetwork(t, Config{})
	tx := chain.NewSingleOp("client-1", 0, iel.KeyValueName, iel.FnSet, "k", "v")
	if err := n.Submit(0, tx); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1, 10*time.Second)
	for i := 0; i < 4; i++ {
		if v, ok := n.WorldState(i).Get("k"); !ok || v.Value != "v" {
			t.Fatalf("validator %d state missing key", i)
		}
	}
}

func TestFailedExecutionStillIncluded(t *testing.T) {
	n, col := newNetwork(t, Config{})
	// Balance of a nonexistent account fails execution but is included.
	tx := chain.NewSingleOp("client-1", 0, iel.BankingAppName, iel.FnBalance, "ghost")
	if err := n.Submit(0, tx); err != nil {
		t.Fatal(err)
	}
	events := col.wait(t, 1, 10*time.Second)
	if !events[0].Committed || events[0].ValidOK {
		t.Fatalf("event = %+v, want committed but invalid", events[0])
	}
}

func TestLivelockLatchesUnderLowBlockPeriodAndLoad(t *testing.T) {
	n, col := newNetwork(t, Config{
		BlockPeriod:      10 * time.Millisecond,
		StallBlockPeriod: 10 * time.Millisecond, // this period is "low"
		StallQueueLimit:  10,
	})
	// Flood far past the queue limit before a block can drain it.
	for i := 0; i < 500; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
		if err := n.Submit(0, tx); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !n.Stalled() {
		time.Sleep(5 * time.Millisecond)
	}
	if !n.Stalled() {
		t.Fatal("livelock never latched")
	}
	// Once stalled, the backlog stops draining: block height keeps growing
	// (empty blocks) while events stop.
	before := col.len()
	h1 := n.ChainHeight()
	time.Sleep(100 * time.Millisecond)
	if n.ChainHeight() <= h1 {
		t.Fatal("stalled node stopped producing empty blocks (must keep consensus alive)")
	}
	if got := col.len(); got > before+50 {
		t.Fatalf("events kept flowing after stall: %d -> %d", before, got)
	}
	if n.PoolDepth() == 0 {
		t.Fatal("backlog drained despite livelock")
	}
}

func TestNoLivelockAtHighBlockPeriod(t *testing.T) {
	n, _ := newNetwork(t, Config{
		BlockPeriod:      25 * time.Millisecond,
		StallBlockPeriod: 10 * time.Millisecond, // 25ms is "high enough"
		StallQueueLimit:  10,
	})
	for i := 0; i < 200; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
		if err := n.Submit(0, tx); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(300 * time.Millisecond)
	if n.Stalled() {
		t.Fatal("livelock latched above the stall block period")
	}
}

func TestLedgersConverge(t *testing.T) {
	n, col := newNetwork(t, Config{})
	for i := 0; i < 12; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.KeyValueName, iel.FnSet,
			fmt.Sprintf("key-%d", i), "v")
		if err := n.Submit(i, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.wait(t, 12, 10*time.Second)
	// All validators eventually hold identical chains.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		h := n.validators[0].Ledger.Height()
		same := true
		for _, v := range n.validators[1:] {
			if v.Ledger.Height() < h {
				same = false
			}
		}
		if same {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, v := range n.validators {
		if err := v.Ledger.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSubmitAfterStop(t *testing.T) {
	n := New(Config{BlockPeriod: 10 * time.Millisecond})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	n.Stop(clock.Handle{})
	tx := chain.NewSingleOp("c", 0, iel.DoNothingName, iel.FnDoNothing)
	if err := n.Submit(0, tx); err == nil {
		t.Fatal("Submit after Stop must fail")
	}
}

func TestDrainedAndStallInteraction(t *testing.T) {
	n, _ := newNetwork(t, Config{
		BlockPeriod:      10 * time.Millisecond,
		StallBlockPeriod: 10 * time.Millisecond,
		StallQueueLimit:  5,
	})
	if !n.Drained() {
		t.Fatal("fresh network must be drained")
	}
	for i := 0; i < 300; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
		if err := n.Submit(0, tx); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !n.Stalled() {
		time.Sleep(5 * time.Millisecond)
	}
	if !n.Stalled() {
		t.Fatal("livelock never latched")
	}
	// A stalled network reports drained: its backlog will never move, so
	// waiting longer is pointless for the runner.
	if !n.Drained() {
		t.Fatal("stalled network must report drained")
	}
}
