// WAL conformance: the fault matrix must hold unchanged when every node's
// commit plane runs through the durable recovery plane — including when
// the crashed node's log is torn or corrupted, and when a second crash
// lands in the middle of the first restart's replay.
package conformance_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/faults"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/systems/bitshares"
	"github.com/coconut-bench/coconut/internal/systems/corda"
	"github.com/coconut-bench/coconut/internal/systems/diem"
	"github.com/coconut-bench/coconut/internal/systems/fabric"
	"github.com/coconut-bench/coconut/internal/systems/quorum"
	"github.com/coconut-bench/coconut/internal/systems/sawtooth"
	"github.com/coconut-bench/coconut/internal/wal"
)

// walCandidates provisions all seven systems with a write-ahead log using
// the given options (fast test parameters otherwise, mirroring
// candidates()).
func walCandidates(opts *wal.Options) []candidate {
	return []candidate{
		{systems.NameCordaOS, func() systems.Driver {
			return corda.NewOS(corda.Config{
				SignProcessing: time.Millisecond,
				ScanCost:       time.Microsecond,
				FlowTimeout:    10 * time.Second,
				WAL:            opts,
			})
		}},
		{systems.NameCordaEnt, func() systems.Driver {
			return corda.NewEnterprise(corda.Config{
				SignProcessing: time.Millisecond,
				ScanCost:       time.Microsecond,
				FlowTimeout:    10 * time.Second,
				WAL:            opts,
			})
		}},
		{systems.NameBitShares, func() systems.Driver {
			return bitshares.New(bitshares.Config{BlockInterval: 10 * time.Millisecond, WAL: opts})
		}},
		{systems.NameFabric, func() systems.Driver {
			return fabric.New(fabric.Config{MaxMessageCount: 10, BatchTimeout: 15 * time.Millisecond, WAL: opts})
		}},
		{systems.NameQuorum, func() systems.Driver {
			return quorum.New(quorum.Config{BlockPeriod: 10 * time.Millisecond, WAL: opts})
		}},
		{systems.NameSawtooth, func() systems.Driver {
			return sawtooth.New(sawtooth.Config{
				BlockPublishingDelay: 10 * time.Millisecond,
				QueueDepth:           1000,
				WAL:                  opts,
			})
		}},
		{systems.NameDiem, func() systems.Driver {
			return diem.New(diem.Config{RoundInterval: 5 * time.Millisecond, MempoolDepth: 1000, WAL: opts})
		}},
	}
}

// fastWAL keeps the hot path cheap (sub-millisecond appends) so the
// standard matrix timing holds with durability enabled.
func fastWAL() *wal.Options {
	return &wal.Options{
		Fsync: wal.FsyncAlways,
		Latency: wal.LatencyModel{
			AppendPerRecord:  10 * time.Microsecond,
			Fsync:            20 * time.Microsecond,
			ReplayPerRecord:  50 * time.Microsecond,
			RefetchPerRecord: 100 * time.Microsecond,
		},
	}
}

// TestFaultMatrixCrashWithWAL re-runs the crash column of the fault matrix
// with every node on a WAL: liveness, no phantoms, and identical committed
// prefixes must survive the durable gate's replay-and-refetch restart.
func TestFaultMatrixCrashWithWAL(t *testing.T) {
	for _, c := range walCandidates(fastWAL()) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			d := c.make()
			runFaultColumn(t, d,
				func() {
					if err := d.CrashNode(faultNode); err != nil {
						t.Fatal(err)
					}
				},
				func() {
					if err := d.RestartNode(wall, faultNode); err != nil {
						t.Fatal(err)
					}
				},
			)
			if rr, ok := d.(systems.RecoveryReporter); ok {
				stats, enabled := rr.RecoveryStats()
				if !enabled {
					t.Fatal("RecoveryStats reports the WAL disabled")
				}
				if stats.LogRecords == 0 {
					t.Fatal("no WAL records appended across the fault column")
				}
				if stats.ReplayedRecords == 0 || stats.ReplaySec <= 0 {
					t.Fatalf("restart replayed nothing: %+v", stats)
				}
			} else {
				t.Fatalf("%s does not report recovery stats", d.Name())
			}
		})
	}
}

// TestWALCorruptionRecoversToCommittedPrefix damages the crashed node's log
// (torn final record, then a corrupted mid-log record on a second column)
// before its restart. Recovery must degrade gracefully — replay stops at
// the last valid prefix, the suffix is re-fetched — and the matrix's
// convergence criterion must still hold: the recovered node ends on the
// same committed prefix as the survivors, never a panic.
func TestWALCorruptionRecoversToCommittedPrefix(t *testing.T) {
	for _, kind := range []faults.Kind{faults.TornWrite, faults.CorruptRecord} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for _, c := range walCandidates(fastWAL()) {
				c := c
				t.Run(c.name, func(t *testing.T) {
					t.Parallel()
					d := c.make()
					in := faults.NewInjector(d, faults.Schedule{}, nil)
					runFaultColumn(t, d,
						func() {
							if err := in.Apply(wall, faults.Event{Kind: faults.CrashNode, Node: faultNode}); err != nil {
								t.Fatal(err)
							}
							if err := in.Apply(wall, faults.Event{Kind: kind, Node: faultNode}); err != nil {
								t.Fatal(err)
							}
						},
						func() {
							if err := in.Apply(wall, faults.Event{Kind: faults.RestartNode, Node: faultNode}); err != nil {
								t.Fatal(err)
							}
						},
					)
					rr, ok := d.(systems.RecoveryReporter)
					if !ok {
						t.Fatalf("%s does not report recovery stats", d.Name())
					}
					stats, _ := rr.RecoveryStats()
					if stats.LostRecords == 0 {
						t.Fatalf("%s after %s: log reports no lost records — the injector damaged nothing", c.name, kind)
					}
					if stats.RefetchedRecords == 0 || stats.RefetchSec <= 0 {
						t.Fatalf("%s after %s: lost suffix was never re-fetched: %+v", c.name, kind, stats)
					}
				})
			}
		})
	}
}

// TestWALCrashDuringReplay lands a second crash in the middle of the first
// restart's replay. The node must stay down (no half-replayed zombie
// serving traffic), and a second restart must finish the job: liveness and
// converged prefixes as usual.
func TestWALCrashDuringReplay(t *testing.T) {
	// A moderately stretched replay latency opens a wall-clock window for
	// the mid-replay crash. Refetch must stay cheaper than the fastest block
	// period (10ms) or the restart drain could never catch up with ongoing
	// block production.
	opts := fastWAL()
	opts.Latency.ReplayPerRecord = 5 * time.Millisecond
	for _, c := range walCandidates(opts) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			d := c.make()
			const batch = 4
			col := &collector{}
			d.Subscribe("client-1", col.add)
			if err := d.Start(); err != nil {
				t.Fatal(err)
			}
			defer d.Stop(wall)

			var seq uint64
			var keys []string
			for i := 0; i < batch; i++ {
				keys = append(keys, submitSet(t, d, &seq, "pre", i))
			}
			col.wait(t, batch, 15*time.Second)

			// Seed the fault node's log so its replay window is wide on every
			// system: block producers accumulate records on their own, but
			// request-driven systems (Corda) would replay only a handful.
			// 120 records x 5ms guarantees >= 600ms of replay to crash into.
			wa, ok := d.(faults.WALAccessor)
			if !ok {
				t.Fatalf("%s does not expose its node WALs", d.Name())
			}
			for i := 0; i < 120; i++ {
				wa.NodeWAL(faultNode).Append(1)
			}

			if err := d.CrashNode(faultNode); err != nil {
				t.Fatal(err)
			}
			// Load during the outage builds the crashed node's backlog, so
			// the restart has a long refetch phase to crash into.
			for i := 0; i < batch; i++ {
				keys = append(keys, submitSet(t, d, &seq, "mid", i))
			}
			time.Sleep(300 * time.Millisecond)

			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := d.RestartNode(wall, faultNode); err != nil {
					t.Error(err)
				}
			}()
			time.Sleep(150 * time.Millisecond) // inside replay/refetch
			if err := d.CrashNode(faultNode); err != nil {
				t.Fatal(err)
			}
			wg.Wait()

			// The interrupted restart must leave the node down.
			seq++
			tx := chain.NewSingleOp("client-1", seq, iel.KeyValueName, iel.FnSet, "wal-recrash", "x")
			if err := d.Submit(faultNode, tx); !errors.Is(err, systems.ErrNodeDown) {
				t.Fatalf("Submit after a mid-replay crash: err = %v, want ErrNodeDown", err)
			}

			// The second restart completes recovery.
			if err := d.RestartNode(wall, faultNode); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < batch; i++ {
				keys = append(keys, submitSet(t, d, &seq, "post", i))
			}
			seq++
			via := chain.NewSingleOp("client-1", seq, iel.KeyValueName, iel.FnSet, "wal-post-via-3", "post")
			if err := d.Submit(faultNode, via); err != nil {
				t.Fatalf("submit through the recovered node: %v", err)
			}
			keys = append(keys, "wal-post-via-3")

			deadline := time.Now().Add(15 * time.Second)
			for time.Now().Before(deadline) {
				if col.count() >= 2*batch+1 {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if n := col.count(); n < 2*batch+1 {
				t.Fatalf("liveness not recovered after the double crash: %d events, want >= %d", n, 2*batch+1)
			}
			time.Sleep(300 * time.Millisecond)
			assertStateConverged(t, d, keys)
		})
	}
}
