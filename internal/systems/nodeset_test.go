package systems

import (
	"errors"
	"testing"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/statestore"
	"github.com/coconut-bench/coconut/internal/wal"
)

// TestNodeSetPlaneHooks checks the node-plane hooks on a transport-less,
// durable set: index bounds, per-node endpoints and WALs, crash/restart
// through the gate, and the queue snapshot's mempool callback.
func TestNodeSetPlaneHooks(t *testing.T) {
	clk := clock.NewAutoVirtual() // restart sleeps out the modeled replay cost
	h := clock.Register(clk, "test")
	defer h.Close()
	s := NewNodeSet(NodeSetConfig{System: "test", Size: 2, Clock: clk,
		WAL: &wal.Options{}, MempoolDepth: func() int { return 7 }})
	var a, b Node
	s.AddNode(&a, "a", "a-ep")
	s.AddNode(&b, "b")

	if got := s.NodeCount(); got != 2 {
		t.Fatalf("NodeCount = %d, want 2", got)
	}
	for _, i := range []int{-1, 2} {
		if err := s.CrashNode(i); !errors.Is(err, ErrNodeDown) {
			t.Fatalf("CrashNode(%d) = %v, want ErrNodeDown", i, err)
		}
		if err := s.RestartNode(h, i); !errors.Is(err, ErrNodeDown) {
			t.Fatalf("RestartNode(%d) = %v, want ErrNodeDown", i, err)
		}
		if s.NodeWAL(i) != nil || s.NodeEndpoints(i) != nil {
			t.Fatalf("node %d out of range but has a WAL or endpoints", i)
		}
	}
	if s.NodeWAL(1) != b.Gate.WAL() || s.NodeWAL(1) == nil {
		t.Fatal("NodeWAL(1) is not node b's mounted log")
	}
	if ep := s.NodeEndpoints(0); len(ep) != 1 || ep[0] != "a-ep" {
		t.Fatalf("NodeEndpoints(0) = %v, want [a-ep]", ep)
	}
	if s.FaultTransport() != nil {
		t.Fatal("transport-less set reports a transport")
	}

	if err := s.CrashNode(1); err != nil {
		t.Fatal(err)
	}
	b.Gate.Commit(h, 1, func() {})
	qs := s.QueueSnapshot()
	if qs.MempoolDepth != 7 || qs.GateBacklog != 1 || qs.NetPending != 0 {
		t.Fatalf("QueueSnapshot = %+v, want MempoolDepth 7, GateBacklog 1, NetPending 0", qs)
	}
	if err := s.RestartNode(h, 1); err != nil {
		t.Fatal(err)
	}
	if b.Gate.Down() || s.QueueSnapshot().GateBacklog != 0 {
		t.Fatal("restart left node b down or its backlog undrained")
	}
	if _, durable := s.RecoveryStats(); !durable {
		t.Fatal("RecoveryStats reports durability off with a WAL configured")
	}
}

// TestChainSetPreloadVersions checks that preload writes every node's world
// state at version {0, op index}, and that a chain set owns a private
// transport when none is shared.
func TestChainSetPreloadVersions(t *testing.T) {
	s := NewChainSet("test", NodeSetConfig{System: "test", Size: 2, Clock: clock.NewVirtual(clock.SimEpoch)})
	defer s.StopTransport(clock.Handle{})
	var a, b Node
	s.AddNode(&a, "a")
	s.AddNode(&b, "b")
	if s.FaultTransport() == nil {
		t.Fatal("chain set without a shared transport has none")
	}
	ops := []chain.Operation{
		{IEL: iel.KeyValueName, Function: iel.FnSet, Args: []string{"k0", "v0"}},
		{IEL: iel.KeyValueName, Function: iel.FnSet, Args: []string{"k1", "v1"}},
	}
	if err := s.Preload(ops); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.NodeCount(); i++ {
		v, ok := s.WorldState(i).Get("k1")
		if !ok || v.Value != "v1" || v.Version != (statestore.Version{TxNum: 1}) {
			t.Fatalf("node %d: k1 = %+v (present %v), want v1 at {0, 1}", i, v, ok)
		}
		if s.LedgerHead(i) != a.Ledger.Head().Hash {
			t.Fatalf("node %d ledger does not start at the shared genesis", i)
		}
	}
}
