package systems

import (
	"sync"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/trace"
	"github.com/coconut-bench/coconut/internal/wal"
)

// DurableGate is NodeGate's WAL-backed successor: the same commit-plane
// switch every driver mounts behind its CrashNode/RestartNode hooks, with
// an optional write-ahead log making recovery cost real. Without Enable it
// behaves exactly like NodeGate — the no-fault hot path pays nothing.
//
// With a log enabled, Commit appends a WAL record *before* applying the
// node's commit work and charges the modeled append/fsync latency on the
// node's clock; Crash drops the log's un-synced tail (in-memory page cache
// lost with the process) instead of recovery being free; Restart replays
// the log from the last snapshot — paying per-record read+CRC-verify cost —
// and then re-fetches from the surviving nodes whatever the log could not
// provide (lost tail, work missed while down, a torn or corrupt suffix),
// persisting the catch-up batch before reopening. Recovery time therefore
// scales with log length and crash point.
//
// Clock-safety: the gate never parks while holding its mutex. Modeled
// latencies are charged between the WAL append and the apply, so
// virtual-time actors contending on the gate are never blocked behind a
// sleeping holder.
type DurableGate struct {
	mu      sync.Mutex
	down    bool
	backlog []gateTask
	// replaying marks an in-progress Restart drain (see NodeGate); recrash
	// records a Crash that landed mid-replay: the drain stops before
	// applying the next item, pushes the unapplied suffix back, and the
	// node stays down until the next Restart.
	replaying bool
	recrash   bool
	// inflight counts the not-yet-applied remainder of a swapped-out drain
	// batch, so Backlog never under-reports during replay.
	inflight int

	clk clock.Clock
	log *wal.Log
	// pendingRefetch counts records the log lost at crash time, to be
	// re-fetched from peers on the next Restart.
	pendingRefetch int

	// Tracing (see Trace): fsync barriers always produce a span — they are
	// the rare, expensive event — while plain appends are counter-sampled
	// through the tracer's rate so batch-policy runs stay bounded.
	tr        *trace.Tracer
	traceProc string
	traceLane string
	traceKey  uint64 // FNV of the lane, salts the append counter
	appendSeq uint64

	replayedRecords  uint64
	refetchedRecords uint64
	replaySec        float64
	refetchSec       float64
}

// gateTask is one unit of buffered commit work and the entry (transaction)
// count its WAL record covers.
type gateTask struct {
	entries int
	f       func()
}

// Enable mounts a write-ahead log on the gate. Call before traffic starts;
// a gate never Enabled is a plain NodeGate.
func (g *DurableGate) Enable(clk clock.Clock, log *wal.Log) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if clk == nil {
		clk = clock.New()
	}
	g.clk = clk
	g.log = log
}

// Trace attaches a span sink to the gate's durability path. proc and lane
// name the Chrome-trace process/thread rows (system name and node name). A
// nil tracer detaches. Call before traffic starts, like Enable.
func (g *DurableGate) Trace(tr *trace.Tracer, proc, lane string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.tr = tr
	g.traceProc = proc
	g.traceLane = lane
	h := uint64(14695981039346656037)
	for i := 0; i < len(lane); i++ {
		h ^= uint64(lane[i])
		h *= 1099511628211
	}
	g.traceKey = h
}

// WAL returns the mounted log, or nil when durability is disabled.
func (g *DurableGate) WAL() *wal.Log {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.log
}

// Do runs one unit of commit work covering a single entry; see Commit.
func (g *DurableGate) Do(h clock.Handle, f func()) { g.Commit(h, 1, f) }

// Commit durably records and then runs one unit of commit work covering
// `entries` transactions (zero entries — an empty block — still writes a
// header-only record). When the gate is open and a log is mounted, the
// record is appended before f runs and the modeled append+fsync latency is
// charged on the caller's handle h; when the node is down, the work is
// buffered for replay, exactly like NodeGate.
func (g *DurableGate) Commit(h clock.Handle, entries int, f func()) {
	g.mu.Lock()
	if g.down {
		g.backlog = append(g.backlog, gateTask{entries, f})
		g.mu.Unlock()
		return
	}
	if g.log == nil {
		defer g.mu.Unlock()
		f()
		return
	}
	res := g.log.Append(entries)
	tr := g.tr
	emit := false
	var proc, lane string
	if tr.Enabled() {
		proc, lane = g.traceProc, g.traceLane
		// Every fsync barrier is recorded (sampling could miss all of a
		// batch policy's rare syncs); plain appends go through the rate.
		emit = res.Synced || tr.Sampled(g.appendSeq^g.traceKey)
		g.appendSeq++
	}
	g.mu.Unlock()
	if emit {
		name := "wal:append"
		if res.Synced {
			name = "wal:fsync"
		}
		startN := g.clk.Now().UnixNano()
		tr.Add(trace.Span{Name: name, Cat: "wal", Proc: proc, Lane: lane,
			Start: startN, End: startN + int64(res.Latency)})
	}
	if res.Latency > 0 {
		h.Sleep(res.Latency)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.down {
		// The node crashed during the durability wait: the apply is
		// deferred to replay (its record was already appended, so the
		// buffered task carries no entries of its own).
		g.backlog = append(g.backlog, gateTask{0, f})
		return
	}
	f()
}

// Crash closes the gate and drops the log's un-synced tail, reporting
// whether the crash had effect. A crash landing mid-replay interrupts the
// drain (the node stays down; a later Restart completes recovery) and also
// reports true; a second crash on an already-down, non-replaying node is a
// no-op returning false, never a panic.
func (g *DurableGate) Crash() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.down {
		if g.replaying && !g.recrash {
			g.recrash = true
			return true
		}
		return false
	}
	g.down = true
	if g.log != nil {
		g.pendingRefetch += g.log.Crash()
	}
	return true
}

// Restart recovers the node: replay the log's valid prefix (charging
// per-record read+CRC cost), re-fetch and re-persist whatever the log lost,
// then drain the buffered commit work in arrival order and reopen, charging
// the recovery cost on the caller's handle h. Returns the number of applied
// backlog items. Restarting a node that is up or already mid-replay is a
// no-op.
func (g *DurableGate) Restart(h clock.Handle) int {
	g.mu.Lock()
	if !g.down || g.replaying {
		g.mu.Unlock()
		return 0
	}
	g.replaying = true
	g.recrash = false
	log, refetch := g.log, g.pendingRefetch
	g.pendingRefetch = 0
	g.mu.Unlock()

	if log != nil {
		rep := log.Replay()
		refetch += rep.Lost // a torn/corrupt suffix is re-fetched too
		if rep.Latency > 0 {
			h.Sleep(rep.Latency)
		}
		g.mu.Lock()
		g.replayedRecords += uint64(rep.Records)
		g.replaySec += rep.Latency.Seconds()
		g.mu.Unlock()
		if refetch > 0 {
			g.chargeRefetch(h, log, make([]int, refetch))
		}
	}

	n := 0
	g.mu.Lock()
	for len(g.backlog) > 0 && !g.recrash {
		batch := g.backlog
		g.backlog = nil
		g.inflight = len(batch)
		g.mu.Unlock()

		if log != nil {
			counts := make([]int, len(batch))
			for i, t := range batch {
				counts[i] = t.entries
			}
			g.chargeRefetch(h, log, counts)
		}

		aborted := false
		for i, t := range batch {
			g.mu.Lock()
			if g.recrash {
				// Push the unapplied suffix back to the front so a later
				// Restart resumes exactly where this one was interrupted.
				g.backlog = append(batch[i:], g.backlog...)
				g.inflight = 0
				g.mu.Unlock()
				aborted = true
				break
			}
			g.mu.Unlock()
			t.f()
			n++
			g.mu.Lock()
			g.inflight = len(batch) - i - 1
			g.mu.Unlock()
		}
		g.mu.Lock()
		if aborted {
			break
		}
	}
	if g.recrash {
		g.recrash = false
		g.replaying = false
		g.mu.Unlock()
		return n
	}
	g.down = false
	g.replaying = false
	g.mu.Unlock()
	return n
}

// chargeRefetch persists one catch-up batch (bulk append, single forced
// sync) and charges its modeled persist+network-refetch cost.
func (g *DurableGate) chargeRefetch(h clock.Handle, log *wal.Log, counts []int) {
	res := log.AppendBatch(counts)
	cost := res.Latency + log.RefetchCost(len(counts))
	if cost > 0 {
		h.Sleep(cost)
	}
	g.mu.Lock()
	g.refetchedRecords += uint64(len(counts))
	g.refetchSec += cost.Seconds()
	g.mu.Unlock()
}

// Down reports whether the node is currently crashed.
func (g *DurableGate) Down() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.down
}

// Backlog reports how much commit work is still pending: buffered items
// plus the in-flight remainder of an in-progress Restart drain.
func (g *DurableGate) Backlog() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.backlog) + g.inflight
}

// Stats snapshots the node's recovery-plane counters (zero value when no
// log is mounted).
func (g *DurableGate) Stats() RecoveryStats {
	g.mu.Lock()
	log := g.log
	rs := RecoveryStats{
		ReplayedRecords:  g.replayedRecords,
		RefetchedRecords: g.refetchedRecords,
		ReplaySec:        g.replaySec,
		RefetchSec:       g.refetchSec,
	}
	g.mu.Unlock()
	if log != nil {
		ls := log.Stats()
		rs.LogRecords = ls.AppendedRecords
		rs.LogBytes = ls.AppendedBytes
		rs.Fsyncs = ls.Fsyncs
		rs.Snapshots = ls.Snapshots
		rs.LostRecords = ls.LostRecords
	}
	return rs
}

// RecoveryStats aggregates the durability plane's cumulative counters,
// summed by the NodeSet across its nodes' gates and folded by the benchmark
// runner into per-repetition deltas.
type RecoveryStats struct {
	// LogRecords/LogBytes count everything ever appended to the WALs.
	LogRecords uint64
	LogBytes   uint64
	// Fsyncs and Snapshots count durability barriers and checkpoints.
	Fsyncs    uint64
	Snapshots uint64
	// LostRecords counts records dropped by crash truncation or stopped-at
	// by CRC verification (torn/corrupt suffixes).
	LostRecords uint64
	// ReplayedRecords/ReplaySec measure log replay on restart — the cost
	// that scales with crash-point log length.
	ReplayedRecords uint64
	ReplaySec       float64
	// RefetchedRecords/RefetchSec measure peer catch-up for records the
	// log could not provide.
	RefetchedRecords uint64
	RefetchSec       float64
}

// Add returns s + o, component-wise.
func (s RecoveryStats) Add(o RecoveryStats) RecoveryStats {
	s.LogRecords += o.LogRecords
	s.LogBytes += o.LogBytes
	s.Fsyncs += o.Fsyncs
	s.Snapshots += o.Snapshots
	s.LostRecords += o.LostRecords
	s.ReplayedRecords += o.ReplayedRecords
	s.ReplaySec += o.ReplaySec
	s.RefetchedRecords += o.RefetchedRecords
	s.RefetchSec += o.RefetchSec
	return s
}

// Sub returns s - o, component-wise — the delta between two snapshots of
// cumulative counters.
func (s RecoveryStats) Sub(o RecoveryStats) RecoveryStats {
	s.LogRecords -= o.LogRecords
	s.LogBytes -= o.LogBytes
	s.Fsyncs -= o.Fsyncs
	s.Snapshots -= o.Snapshots
	s.LostRecords -= o.LostRecords
	s.ReplayedRecords -= o.ReplayedRecords
	s.ReplaySec -= o.ReplaySec
	s.RefetchedRecords -= o.RefetchedRecords
	s.RefetchSec -= o.RefetchSec
	return s
}

// RecoveryReporter is implemented by drivers whose nodes mount a WAL. The
// bool reports whether durability is enabled for this run (false means the
// stats are structurally zero and should not be folded into results).
type RecoveryReporter interface {
	RecoveryStats() (RecoveryStats, bool)
}
