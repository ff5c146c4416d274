// Package conformance_test exercises the systems.Driver contract uniformly
// against all seven simulated systems: every system must start and stop
// cleanly, confirm committed writes end to end on every node, route events
// to the right client, and reject submissions after Stop. System-specific
// behaviour (losses, validation failures) lives in each system's own
// package; this suite pins the shared contract.
package conformance_test

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/statestore"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/systems/bitshares"
	"github.com/coconut-bench/coconut/internal/systems/corda"
	"github.com/coconut-bench/coconut/internal/systems/diem"
	"github.com/coconut-bench/coconut/internal/systems/fabric"
	"github.com/coconut-bench/coconut/internal/systems/quorum"
	"github.com/coconut-bench/coconut/internal/systems/sawtooth"
)

// wall is the test code's handle: the candidates run on the wall clock,
// where a restart sleeps out its modeled recovery cost.
var wall = clock.Register(clock.New(), "conformance")

// candidate provisions one system with fast test parameters.
type candidate struct {
	name string
	make func() systems.Driver
}

func candidates() []candidate {
	return []candidate{
		{systems.NameCordaOS, func() systems.Driver {
			return corda.NewOS(corda.Config{
				SignProcessing: time.Millisecond,
				ScanCost:       time.Microsecond,
				FlowTimeout:    10 * time.Second,
			})
		}},
		{systems.NameCordaEnt, func() systems.Driver {
			return corda.NewEnterprise(corda.Config{
				SignProcessing: time.Millisecond,
				ScanCost:       time.Microsecond,
				FlowTimeout:    10 * time.Second,
			})
		}},
		{systems.NameBitShares, func() systems.Driver {
			return bitshares.New(bitshares.Config{BlockInterval: 10 * time.Millisecond})
		}},
		{systems.NameFabric, func() systems.Driver {
			return fabric.New(fabric.Config{MaxMessageCount: 10, BatchTimeout: 15 * time.Millisecond})
		}},
		{systems.NameQuorum, func() systems.Driver {
			return quorum.New(quorum.Config{BlockPeriod: 10 * time.Millisecond})
		}},
		{systems.NameSawtooth, func() systems.Driver {
			return sawtooth.New(sawtooth.Config{
				BlockPublishingDelay: 10 * time.Millisecond,
				QueueDepth:           1000,
			})
		}},
		{systems.NameDiem, func() systems.Driver {
			return diem.New(diem.Config{RoundInterval: 5 * time.Millisecond, MempoolDepth: 1000})
		}},
	}
}

type collector struct {
	mu     sync.Mutex
	events []systems.Event
}

func (c *collector) add(e systems.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *collector) count() int {
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
	t.Fatalf("received %d events, want %d", c.count(), want)
	return nil
}

func TestContractNameAndNodeCount(t *testing.T) {
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			d := c.make()
			if d.Name() != c.name {
				t.Fatalf("Name() = %q, want %q", d.Name(), c.name)
			}
			if d.NodeCount() != 4 {
				t.Fatalf("NodeCount() = %d, want the paper's 4", d.NodeCount())
			}
		})
	}
}

func TestContractCommitsEndToEnd(t *testing.T) {
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			d := c.make()
			col := &collector{}
			d.Subscribe("client-1", col.add)
			if err := d.Start(); err != nil {
				t.Fatal(err)
			}
			defer d.Stop(wall)

			const txs = 5
			for i := 0; i < txs; i++ {
				tx := chain.NewSingleOp("client-1", uint64(i), iel.KeyValueName, iel.FnSet,
					fmt.Sprintf("conf-%d", i), "v")
				if err := d.Submit(i, tx); err != nil {
					t.Fatal(err)
				}
			}
			events := col.wait(t, txs, 15*time.Second)
			seen := make(map[string]bool)
			for _, e := range events {
				if !e.Committed || !e.ValidOK {
					t.Fatalf("event = %+v, want committed+valid", e)
				}
				if e.Client != "client-1" {
					t.Fatalf("event routed to %q", e.Client)
				}
				seen[e.TxID.String()] = true
			}
			if len(seen) != txs {
				t.Fatalf("distinct events = %d, want %d", len(seen), txs)
			}
		})
	}
}

func TestContractEventsRoutePerClient(t *testing.T) {
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			d := c.make()
			colA, colB := &collector{}, &collector{}
			d.Subscribe("client-a", colA.add)
			d.Subscribe("client-b", colB.add)
			if err := d.Start(); err != nil {
				t.Fatal(err)
			}
			defer d.Stop(wall)

			txA := chain.NewSingleOp("client-a", 1, iel.DoNothingName, iel.FnDoNothing)
			txB := chain.NewSingleOp("client-b", 1, iel.DoNothingName, iel.FnDoNothing)
			if err := d.Submit(0, txA); err != nil {
				t.Fatal(err)
			}
			if err := d.Submit(1, txB); err != nil {
				t.Fatal(err)
			}
			evA := colA.wait(t, 1, 15*time.Second)
			evB := colB.wait(t, 1, 15*time.Second)
			if evA[0].TxID != txA.ID {
				t.Fatal("client-a received the wrong transaction")
			}
			if evB[0].TxID != txB.ID {
				t.Fatal("client-b received the wrong transaction")
			}
			if colA.count() > 1 || colB.count() > 1 {
				t.Fatal("cross-client event leakage")
			}
		})
	}
}

func TestContractNoDuplicateEvents(t *testing.T) {
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			d := c.make()
			col := &collector{}
			d.Subscribe("client-1", col.add)
			if err := d.Start(); err != nil {
				t.Fatal(err)
			}
			defer d.Stop(wall)

			tx := chain.NewSingleOp("client-1", 1, iel.DoNothingName, iel.FnDoNothing)
			if err := d.Submit(0, tx); err != nil {
				t.Fatal(err)
			}
			col.wait(t, 1, 15*time.Second)
			// Allow stragglers to surface, then verify exactly one event.
			time.Sleep(100 * time.Millisecond)
			if n := col.count(); n != 1 {
				t.Fatalf("events = %d, want exactly 1 (at-most-once per tx)", n)
			}
		})
	}
}

func TestContractSubmitAfterStopFails(t *testing.T) {
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			d := c.make()
			if err := d.Start(); err != nil {
				t.Fatal(err)
			}
			d.Stop(wall)
			tx := chain.NewSingleOp("client-1", 1, iel.DoNothingName, iel.FnDoNothing)
			if err := d.Submit(0, tx); err == nil {
				t.Fatal("Submit after Stop must fail")
			}
		})
	}
}

func TestContractStopIsIdempotent(t *testing.T) {
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			d := c.make()
			if err := d.Start(); err != nil {
				t.Fatal(err)
			}
			d.Stop(wall)
			d.Stop(wall) // must not panic or hang
		})
	}
}

func TestContractStartIsIdempotent(t *testing.T) {
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			d := c.make()
			if err := d.Start(); err != nil {
				t.Fatal(err)
			}
			if err := d.Start(); err != nil {
				t.Fatalf("second Start errored: %v", err)
			}
			d.Stop(wall)
		})
	}
}

func TestContractEntryNodeWrapsAround(t *testing.T) {
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			d := c.make()
			col := &collector{}
			d.Subscribe("client-1", col.add)
			if err := d.Start(); err != nil {
				t.Fatal(err)
			}
			defer d.Stop(wall)
			// Entry node beyond NodeCount must not panic: it wraps.
			tx := chain.NewSingleOp("client-1", 1, iel.DoNothingName, iel.FnDoNothing)
			if err := d.Submit(99, tx); err != nil {
				t.Fatal(err)
			}
			col.wait(t, 1, 15*time.Second)
		})
	}
}

// TestContractFundsConservation runs a banking workload (creates + chained
// payments) against every block-based system and verifies that the world
// state conserves total funds regardless of how many payments failed,
// conflicted, or were discarded. Corda is excluded: its UTXO vault has no
// queryable balance aggregate in this harness.
func TestContractFundsConservation(t *testing.T) {
	type stateReader interface {
		WorldState(i int) *statestore.KVStore
	}
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			d := c.make()
			sr, ok := d.(stateReader)
			if !ok {
				t.Skipf("%s exposes no world state", c.name)
			}
			col := &collector{}
			d.Subscribe("client-1", col.add)
			if err := d.Start(); err != nil {
				t.Fatal(err)
			}
			defer d.Stop(wall)

			const accounts = 6
			const initial = 1000
			seq := uint64(0)
			for i := 0; i < accounts; i++ {
				seq++
				tx := chain.NewSingleOp("client-1", seq, iel.BankingAppName, iel.FnCreateAccount,
					fmt.Sprintf("fc-%d", i), "1000", "0")
				if err := d.Submit(i, tx); err != nil {
					t.Fatal(err)
				}
			}
			col.wait(t, accounts, 15*time.Second)

			// Chained overlapping payments: some will conflict/fail by design.
			payments := 0
			for i := 0; i < accounts-1; i++ {
				seq++
				tx := chain.NewSingleOp("client-1", seq, iel.BankingAppName, iel.FnSendPayment,
					fmt.Sprintf("fc-%d", i), fmt.Sprintf("fc-%d", i+1), "7")
				if err := d.Submit(i, tx); err == nil {
					payments++
				}
			}
			// Give payments time to settle; some systems drop them entirely.
			time.Sleep(500 * time.Millisecond)

			for node := 0; node < d.NodeCount(); node++ {
				total := int64(0)
				found := 0
				for i := 0; i < accounts; i++ {
					cKey := fmt.Sprintf("acct/fc-%d/checking", i)
					sKey := fmt.Sprintf("acct/fc-%d/savings", i)
					cv, okC := sr.WorldState(node).Get(cKey)
					sv, okS := sr.WorldState(node).Get(sKey)
					if !okC || !okS {
						continue
					}
					found++
					cAmt, err := strconv.ParseInt(cv.Value, 10, 64)
					if err != nil {
						t.Fatal(err)
					}
					sAmt, err := strconv.ParseInt(sv.Value, 10, 64)
					if err != nil {
						t.Fatal(err)
					}
					total += cAmt + sAmt
				}
				if found == 0 {
					t.Fatalf("node %d has no accounts in state", node)
				}
				if want := int64(found) * initial; total != want {
					t.Fatalf("node %d: funds = %d, want %d (conservation violated across %d accounts)",
						node, total, want, found)
				}
			}
		})
	}
}
