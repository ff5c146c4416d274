package diembft

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/network"
)

type cluster struct {
	t         *testing.T
	transport *network.Transport
	engines   []*Engine

	mu      sync.Mutex
	decided map[string][]consensus.Decision
}

func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	c := &cluster{
		t:         t,
		transport: network.NewTransport(clock.New(), nil),
		decided:   make(map[string][]consensus.Decision),
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("diem-%d", i)
	}
	for _, id := range names {
		id := id
		e := New(Config{
			ID:            id,
			Validators:    names,
			Transport:     c.transport,
			RoundInterval: 5 * time.Millisecond,
			OnDecide: func(_ clock.Handle, d consensus.Decision) {
				c.mu.Lock()
				c.decided[id] = append(c.decided[id], d)
				c.mu.Unlock()
			},
		})
		c.engines = append(c.engines, e)
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, e := range c.engines {
			e.Stop(clock.Handle{})
		}
		c.transport.Stop(clock.Handle{})
	})
	return c
}

func (c *cluster) waitDecisions(id string, want int, timeout time.Duration) []consensus.Decision {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		n := len(c.decided[id])
		c.mu.Unlock()
		if n >= want {
			c.mu.Lock()
			defer c.mu.Unlock()
			out := make([]consensus.Decision, len(c.decided[id]))
			copy(out, c.decided[id])
			return out
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.mu.Lock()
	n := len(c.decided[id])
	c.mu.Unlock()
	c.t.Fatalf("%s decided %d, want %d", id, n, want)
	return nil
}

func TestCommitsSubmittedPayload(t *testing.T) {
	c := newCluster(t, 4)
	if err := c.engines[0].Submit(clock.Handle{}, "tx-block-1"); err != nil {
		t.Fatal(err)
	}
	ds := c.waitDecisions("diem-0", 1, 5*time.Second)
	if ds[0].Payload != "tx-block-1" {
		t.Fatalf("payload = %v", ds[0].Payload)
	}
}

func TestAllValidatorsCommitSameOrder(t *testing.T) {
	c := newCluster(t, 4)
	const total = 10
	for i := 0; i < total; i++ {
		// Spread submissions across validators; each leader drains its own
		// pending queue when its round arrives.
		if err := c.engines[i%4].Submit(clock.Handle{}, fmt.Sprintf("p-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var ref []consensus.Decision
	for i, e := range c.engines {
		_ = e
		id := fmt.Sprintf("diem-%d", i)
		ds := c.waitDecisions(id, total, 10*time.Second)[:total]
		if i == 0 {
			ref = ds
			continue
		}
		for j := range ds {
			if ds[j].Payload != ref[j].Payload {
				t.Fatalf("%s slot %d: %v != %v (agreement violation)",
					id, j, ds[j].Payload, ref[j].Payload)
			}
		}
	}
}

func TestSeqIsGapFree(t *testing.T) {
	c := newCluster(t, 4)
	for i := 0; i < 5; i++ {
		if err := c.engines[0].Submit(clock.Handle{}, i); err != nil {
			t.Fatal(err)
		}
	}
	ds := c.waitDecisions("diem-0", 5, 5*time.Second)
	for i, d := range ds[:5] {
		if d.Seq != uint64(i+1) {
			t.Fatalf("decision %d has seq %d", i, d.Seq)
		}
	}
}

func TestRoundsAdvanceWithoutPayloads(t *testing.T) {
	c := newCluster(t, 4)
	// Even with nothing submitted the pacemaker must advance rounds via
	// empty blocks.
	start := c.engines[0].Round()
	time.Sleep(200 * time.Millisecond)
	if got := c.engines[0].Round(); got <= start {
		t.Fatalf("round did not advance: %d -> %d", start, got)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.decided["diem-0"]) != 0 {
		t.Fatal("empty blocks must not be delivered as decisions")
	}
}

func TestSubmitNotRunning(t *testing.T) {
	tr := network.NewTransport(clock.New(), nil)
	defer tr.Stop(clock.Handle{})
	e := New(Config{ID: "x", Validators: []string{"x"}, Transport: tr})
	if err := e.Submit(clock.Handle{}, "v"); err != consensus.ErrNotRunning {
		t.Fatalf("err = %v, want ErrNotRunning", err)
	}
}

func TestSurvivesLeaderIsolation(t *testing.T) {
	c := newCluster(t, 4)
	// Isolate one validator; the pacemaker must skip its rounds and the
	// cluster still commits with 3 of 4 (quorum 3).
	c.transport.Isolate("diem-1")
	for i := 0; i < 3; i++ {
		if err := c.engines[0].Submit(clock.Handle{}, fmt.Sprintf("x-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	c.waitDecisions("diem-0", 3, 10*time.Second)
}

func TestPendingCount(t *testing.T) {
	tr := network.NewTransport(clock.New(), nil)
	defer tr.Stop(clock.Handle{})
	e := New(Config{ID: "solo", Validators: []string{"solo", "g1", "g2", "g3"}, Transport: tr})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop(clock.Handle{})
	_ = e.Submit(clock.Handle{}, 1)
	_ = e.Submit(clock.Handle{}, 2)
	if n := e.PendingCount(); n < 1 {
		t.Fatalf("pending = %d, want >= 1", n)
	}
}
