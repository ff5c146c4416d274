package raft

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/network"
)

// cluster is a test harness wiring n Raft nodes over one transport.
type cluster struct {
	t         *testing.T
	transport *network.Transport
	nodes     []*Node

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
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("orderer-%d", i)
	}
	for i := 0; i < n; i++ {
		id := peers[i]
		node := New(Config{
			ID:                id,
			Peers:             peers,
			Transport:         c.transport,
			OnDecide:          c.recorder(id),
			HeartbeatInterval: 5 * time.Millisecond,
			ElectionTimeout:   30 * time.Millisecond,
			Seed:              int64(i + 1),
		})
		c.nodes = append(c.nodes, node)
	}
	for _, node := range c.nodes {
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, node := range c.nodes {
			node.Stop(clock.Handle{})
		}
		c.transport.Stop(clock.Handle{})
	})
	return c
}

func (c *cluster) recorder(id string) consensus.DecideFunc {
	return func(_ clock.Handle, d consensus.Decision) {
		c.mu.Lock()
		c.decided[id] = append(c.decided[id], d)
		c.mu.Unlock()
	}
}

func (c *cluster) waitLeader(timeout time.Duration) *Node {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, n := range c.nodes {
			if n.Role() == Leader {
				return n
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.t.Fatal("no leader elected")
	return nil
}

func (c *cluster) waitDecisions(id string, want int, timeout time.Duration) []consensus.Decision {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		got := len(c.decided[id])
		c.mu.Unlock()
		if got >= want {
			c.mu.Lock()
			defer c.mu.Unlock()
			out := make([]consensus.Decision, len(c.decided[id]))
			copy(out, c.decided[id])
			return out
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.mu.Lock()
	got := len(c.decided[id])
	c.mu.Unlock()
	c.t.Fatalf("node %s decided %d entries, want %d", id, got, want)
	return nil
}

func TestElectsSingleLeader(t *testing.T) {
	c := newCluster(t, 3)
	c.waitLeader(2 * time.Second)
	// Give elections time to settle, then count leaders in the same term.
	time.Sleep(100 * time.Millisecond)
	leaders := 0
	var term uint64
	for _, n := range c.nodes {
		if n.Role() == Leader {
			leaders++
			term = n.Term()
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d, want exactly 1 (term %d)", leaders, term)
	}
}

func TestReplicatesAndDecides(t *testing.T) {
	c := newCluster(t, 3)
	leader := c.waitLeader(2 * time.Second)

	for i := 0; i < 5; i++ {
		if err := leader.Submit(clock.Handle{}, fmt.Sprintf("block-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range c.nodes {
		ds := c.waitDecisions(n.cfg.ID, 5, 3*time.Second)
		for i, d := range ds[:5] {
			if d.Seq != uint64(i+1) {
				t.Fatalf("%s decision %d has seq %d", n.cfg.ID, i, d.Seq)
			}
			if d.Payload != fmt.Sprintf("block-%d", i) {
				t.Fatalf("%s decision %d payload %v", n.cfg.ID, i, d.Payload)
			}
		}
	}
}

func TestAgreementAcrossNodes(t *testing.T) {
	c := newCluster(t, 5)
	leader := c.waitLeader(2 * time.Second)
	for i := 0; i < 20; i++ {
		if err := leader.Submit(clock.Handle{}, i); err != nil {
			t.Fatal(err)
		}
	}
	var reference []consensus.Decision
	for i, n := range c.nodes {
		ds := c.waitDecisions(n.cfg.ID, 20, 5*time.Second)[:20]
		if i == 0 {
			reference = ds
			continue
		}
		for j := range ds {
			if ds[j].Payload != reference[j].Payload {
				t.Fatalf("node %s slot %d = %v, node 0 has %v (safety violation)",
					n.cfg.ID, j, ds[j].Payload, reference[j].Payload)
			}
		}
	}
}

func TestFollowerForwardsSubmit(t *testing.T) {
	c := newCluster(t, 3)
	leader := c.waitLeader(2 * time.Second)
	var follower *Node
	for _, n := range c.nodes {
		if n != leader && n.Leader() == leader.cfg.ID {
			follower = n
			break
		}
	}
	if follower == nil {
		// Followers may not have heard a heartbeat yet; wait briefly.
		time.Sleep(50 * time.Millisecond)
		for _, n := range c.nodes {
			if n != leader && n.Leader() == leader.cfg.ID {
				follower = n
				break
			}
		}
	}
	if follower == nil {
		t.Fatal("no follower knows the leader")
	}
	if err := follower.Submit(clock.Handle{}, "forwarded"); err != nil {
		t.Fatal(err)
	}
	ds := c.waitDecisions(follower.cfg.ID, 1, 3*time.Second)
	if ds[0].Payload != "forwarded" {
		t.Fatalf("payload = %v", ds[0].Payload)
	}
}

func TestLeaderFailover(t *testing.T) {
	c := newCluster(t, 3)
	leader := c.waitLeader(2 * time.Second)
	if err := leader.Submit(clock.Handle{}, "before-failover"); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.nodes {
		c.waitDecisions(n.cfg.ID, 1, 3*time.Second)
	}

	// Isolate the leader; a new one must emerge among the rest.
	c.transport.Isolate(leader.cfg.ID)
	deadline := time.Now().Add(3 * time.Second)
	var newLeader *Node
	for time.Now().Before(deadline) && newLeader == nil {
		for _, n := range c.nodes {
			if n != leader && n.Role() == Leader {
				newLeader = n
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if newLeader == nil {
		t.Fatal("no new leader after isolating old leader")
	}
	if err := newLeader.Submit(clock.Handle{}, "after-failover"); err != nil {
		t.Fatal(err)
	}
	ds := c.waitDecisions(newLeader.cfg.ID, 2, 3*time.Second)
	if ds[1].Payload != "after-failover" {
		t.Fatalf("payload = %v", ds[1].Payload)
	}
}

func TestSubmitWithoutLeaderKnownFails(t *testing.T) {
	tr := network.NewTransport(clock.New(), nil)
	defer tr.Stop(clock.Handle{})
	n := New(Config{
		ID:        "solo-follower",
		Peers:     []string{"solo-follower", "ghost-1", "ghost-2"},
		Transport: tr,
		// Long timeout so it stays follower during the test.
		ElectionTimeout: time.Hour,
	})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop(clock.Handle{})
	if err := n.Submit(clock.Handle{}, "x"); err != consensus.ErrNotLeader {
		t.Fatalf("err = %v, want ErrNotLeader", err)
	}
}

func TestSubmitAfterStop(t *testing.T) {
	tr := network.NewTransport(clock.New(), nil)
	defer tr.Stop(clock.Handle{})
	n := New(Config{ID: "a", Peers: []string{"a"}, Transport: tr})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	n.Stop(clock.Handle{})
	if err := n.Submit(clock.Handle{}, "x"); err != consensus.ErrNotRunning {
		t.Fatalf("err = %v, want ErrNotRunning", err)
	}
}

func TestSingleNodeClusterDecidesImmediately(t *testing.T) {
	tr := network.NewTransport(clock.New(), nil)
	defer tr.Stop(clock.Handle{})
	var mu sync.Mutex
	var got []any
	n := New(Config{
		ID:        "solo",
		Peers:     []string{"solo"},
		Transport: tr,
		OnDecide: func(_ clock.Handle, d consensus.Decision) {
			mu.Lock()
			got = append(got, d.Payload)
			mu.Unlock()
		},
		HeartbeatInterval: 2 * time.Millisecond,
		ElectionTimeout:   10 * time.Millisecond,
	})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop(clock.Handle{})

	deadline := time.Now().Add(2 * time.Second)
	for n.Role() != Leader && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n.Role() != Leader {
		t.Fatal("single node did not become leader")
	}
	if err := n.Submit(clock.Handle{}, "only"); err != nil {
		t.Fatal(err)
	}
	for time.Now().Before(deadline) {
		mu.Lock()
		done := len(got) == 1
		mu.Unlock()
		if done {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("single-node cluster did not decide")
}

func TestRoleString(t *testing.T) {
	if Follower.String() != "follower" || Candidate.String() != "candidate" || Leader.String() != "leader" {
		t.Fatal("role strings wrong")
	}
	if Role(9).String() != "Role(9)" {
		t.Fatal("unknown role string wrong")
	}
}

func TestDecisionsAreGapFree(t *testing.T) {
	c := newCluster(t, 3)
	leader := c.waitLeader(2 * time.Second)
	const total = 50
	for i := 0; i < total; i++ {
		if err := leader.Submit(clock.Handle{}, i); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range c.nodes {
		ds := c.waitDecisions(n.cfg.ID, total, 5*time.Second)
		for i, d := range ds[:total] {
			if d.Seq != uint64(i+1) {
				t.Fatalf("%s: decision %d has seq %d (gap)", n.cfg.ID, i, d.Seq)
			}
		}
	}
}
