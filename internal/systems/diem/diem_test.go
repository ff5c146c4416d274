package diem

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/mempool"
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

func (c *collector) wait(t *testing.T, want int, timeout time.Duration) []systems.Event {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		n := len(c.events)
		c.mu.Unlock()
		if n >= want {
			c.mu.Lock()
			defer c.mu.Unlock()
			out := make([]systems.Event, len(c.events))
			copy(out, c.events)
			return out
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("received %d events, want %d", c.len(), want)
	return nil
}

func newNetwork(t *testing.T, cfg Config) (*Network, *collector) {
	t.Helper()
	if cfg.RoundInterval == 0 {
		cfg.RoundInterval = 5 * time.Millisecond
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
	if n.Name() != systems.NameDiem || n.NodeCount() != 4 {
		t.Fatalf("name=%q nodes=%d", n.Name(), n.NodeCount())
	}
}

func TestCommitsEndToEnd(t *testing.T) {
	n, col := newNetwork(t, Config{})
	for i := 0; i < 5; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.KeyValueName, iel.FnSet,
			fmt.Sprintf("k%d", i), "v")
		if err := n.Submit(i, tx); err != nil {
			t.Fatal(err)
		}
	}
	events := col.wait(t, 5, 15*time.Second)
	for _, e := range events {
		if !e.Committed || !e.ValidOK {
			t.Fatalf("event = %+v", e)
		}
	}
	for i := 0; i < 4; i++ {
		for k := 0; k < 5; k++ {
			if _, ok := n.WorldState(i).Get(fmt.Sprintf("k%d", k)); !ok {
				t.Fatalf("validator %d missing k%d", i, k)
			}
		}
	}
}

func TestMaxBlockSizeBoundsBlocks(t *testing.T) {
	n, col := newNetwork(t, Config{MaxBlockSize: 3, MempoolDepth: 1000})
	for i := 0; i < 12; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
		if err := n.Submit(0, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.wait(t, 12, 15*time.Second)
	for _, b := range n.validators[0].Ledger.Blocks()[1:] {
		if b.TxCount() > 3 {
			t.Fatalf("block %d has %d txs, exceeds max_block_size=3", b.Number, b.TxCount())
		}
	}
}

func TestAdmissionRejectsWhenMempoolFull(t *testing.T) {
	n, _ := newNetwork(t, Config{
		MempoolDepth:  4,
		RoundInterval: time.Hour, // rounds never fire: pool only fills
	})
	rejected := 0
	for i := 0; i < 20; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
		if err := n.Submit(0, tx); errors.Is(err, mempool.ErrQueueFull) {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("full mempool never rejected")
	}
	_, r := n.PoolStats()
	if r == 0 {
		t.Fatal("pool stats recorded no rejections")
	}
}

func TestSpikingCausesAdmissionLosses(t *testing.T) {
	// With near-continuous spikes on a small mempool, the entry validator
	// cannot drain its pool and admission control must reject; without
	// spiking the same load is absorbed.
	run := func(spikePeriod, spikeDuration time.Duration) (delivered int, rejected uint64) {
		cfg := Config{
			RoundInterval: 5 * time.Millisecond,
			SpikePeriod:   spikePeriod,
			SpikeDuration: spikeDuration,
			MempoolDepth:  32,
		}
		n := New(cfg)
		col := &collector{}
		n.Subscribe("client-1", col.add)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		defer n.Stop(clock.Handle{})
		for i := 0; i < 600; i++ {
			tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
			_ = n.Submit(0, tx) // all load on one validator
			time.Sleep(200 * time.Microsecond)
		}
		time.Sleep(300 * time.Millisecond)
		_, r := n.PoolStats()
		return col.len(), r
	}
	healthyDelivered, healthyRejected := run(0, 0)
	if healthyDelivered == 0 {
		t.Fatal("healthy run delivered nothing")
	}
	if healthyRejected != 0 {
		t.Fatalf("healthy run rejected %d transactions", healthyRejected)
	}
	spikingDelivered, spikingRejected := run(60*time.Millisecond, 55*time.Millisecond)
	if spikingRejected == 0 {
		t.Fatal("spiking run rejected nothing; spikes must cause admission losses")
	}
	if spikingDelivered >= healthyDelivered {
		t.Fatalf("spiking delivered %d >= healthy %d", spikingDelivered, healthyDelivered)
	}
}

func TestLedgersConverge(t *testing.T) {
	n, col := newNetwork(t, Config{})
	for i := 0; i < 8; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
		if err := n.Submit(i, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.wait(t, 8, 15*time.Second)
	for _, v := range n.validators {
		if err := v.Ledger.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSubmitAfterStop(t *testing.T) {
	n := New(Config{RoundInterval: 5 * time.Millisecond})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	n.Stop(clock.Handle{})
	tx := chain.NewSingleOp("c", 0, iel.DoNothingName, iel.FnDoNothing)
	if err := n.Submit(0, tx); err == nil {
		t.Fatal("Submit after Stop must fail")
	}
}
