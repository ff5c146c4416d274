package faults

import (
	"sync"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/wal"
)

// TransportAccessor is implemented by drivers whose nodes communicate over
// a shared in-process network.Transport, giving the injector link-level
// access for DegradeLink and SlowNode events. A driver without a message
// fabric (Corda's flows are synchronous calls) either does not implement it
// or returns a nil transport; link events become no-ops for it either way.
type TransportAccessor interface {
	// FaultTransport returns the transport the system's nodes talk over,
	// or nil when they have none.
	FaultTransport() *network.Transport
	// NodeEndpoints returns the transport endpoints owned by node i (nil
	// when the node has none).
	NodeEndpoints(node int) []string
}

// WALAccessor is implemented by drivers whose nodes persist through an
// internal/wal log, giving the injector record-level access for TornWrite
// and CorruptRecord events. Drivers running without a WAL (or not
// implementing the accessor) turn log-corruption events into no-ops —
// graceful degradation, never a panic.
type WALAccessor interface {
	// NodeWAL returns node i's write-ahead log, or nil when the node has
	// none (WAL disabled or node out of range).
	NodeWAL(node int) *wal.Log
}

// Applied records one event the injector actually applied, with the clock
// time at which it fired.
type Applied struct {
	Event Event
	At    time.Time
}

// Injector applies a Schedule against a running driver. Events fire on the
// injected clock, so schedules replay deterministically under
// clock.Virtual. Every Apply transition is idempotent: crashing a crashed
// node, healing without a partition, or restarting a running node are
// no-ops, never panics — chaos schedules are allowed to be sloppy.
type Injector struct {
	drv   systems.Driver
	clk   clock.Clock
	sched []Event

	mu          sync.Mutex
	crashed     map[int]bool // nodes down via CrashNode events
	partitioned []int        // minority group of the active partition
	degraded    bool
	applied     []Applied

	startOnce sync.Once
	stopOnce  sync.Once
	stop      *clock.Gate
	done      *clock.Gate
}

// NewInjector builds an injector for the schedule (applied in time order)
// over the given driver. A nil clock defaults to the wall clock.
func NewInjector(drv systems.Driver, sched Schedule, clk clock.Clock) *Injector {
	if clk == nil {
		clk = clock.New()
	}
	return &Injector{
		drv:     drv,
		clk:     clk,
		sched:   sched.sorted(),
		crashed: make(map[int]bool),
		stop:    clock.NewGate(clk),
		done:    clock.NewGate(clk),
	}
}

// Start launches the injection timeline; offsets are measured from this
// call. Start is idempotent.
func (in *Injector) Start() {
	in.startOnce.Do(func() {
		clock.Fork(in.clk, 1)
		go in.run(in.clk.Now())
	})
}

// Stop halts the timeline and restores the system to health: crashed and
// partitioned nodes restart (replaying their missed commits) and link
// degradations clear, so a benchmark phase always hands a healthy system
// to the next one; the recovery cost is charged on the caller's handle h.
// Stop is idempotent and safe without Start.
func (in *Injector) Stop(h clock.Handle) {
	in.stopOnce.Do(func() { in.stop.Close() })
	in.startOnce.Do(func() { in.done.Close() }) // never started: nothing to wait for
	h.Await(in.done)
	in.restoreAll(h)
}

func (in *Injector) run(start time.Time) {
	h := clock.RegisterForked(in.clk, "fault-injector")
	defer h.Close()
	defer in.done.Close()
	for _, ev := range in.sched {
		if wait := ev.At - in.clk.Since(start); wait > 0 {
			t := in.clk.NewTimer(wait)
			if i, _, _ := h.Await(in.stop, t); i == 0 {
				t.Stop()
				return
			}
		}
		if in.stop.Closed() {
			return
		}
		in.Apply(h, ev)
	}
}

// Apply executes one event immediately on the caller's handle h (also used
// by tests to drive faults synchronously). It returns the driver error, if
// any; state-machine no-ops return nil.
func (in *Injector) Apply(h clock.Handle, ev Event) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	var err error
	switch ev.Kind {
	case CrashNode:
		if in.crashed[ev.Node] {
			return nil // double-crash: no-op
		}
		if err = in.drv.CrashNode(ev.Node); err == nil {
			in.crashed[ev.Node] = true
		}
	case RestartNode:
		if !in.crashed[ev.Node] {
			return nil // restart of a running node: no-op
		}
		if err = in.drv.RestartNode(h, ev.Node); err == nil {
			delete(in.crashed, ev.Node)
		}
	case Partition:
		if in.partitioned != nil {
			return nil // overlapping partition: no-op
		}
		group := make([]int, 0, len(ev.Group))
		for _, node := range ev.Group {
			if in.crashed[node] {
				continue // already down via an explicit crash
			}
			if e := in.drv.CrashNode(node); e != nil {
				err = e
				continue
			}
			group = append(group, node)
		}
		in.partitioned = group
	case Heal:
		for _, node := range in.partitioned {
			if in.crashed[node] {
				// The node was also explicitly crashed mid-partition: its
				// own RestartNode event owns the recovery.
				continue
			}
			if e := in.drv.RestartNode(h, node); e != nil {
				err = e
			}
		}
		in.partitioned = nil
		in.healLinks()
	case DegradeLink:
		if !in.degrade(ev) {
			return nil // no message fabric: nothing was applied
		}
	case SlowNode:
		if !in.degrade(Event{Kind: SlowNode, Group: []int{ev.Node}, Extra: ev.Extra, Loss: ev.Loss}) {
			return nil
		}
	case TornWrite, CorruptRecord:
		if !in.corruptLog(ev) {
			return nil // no WAL to corrupt: nothing was applied
		}
	}
	if err == nil {
		in.applied = append(in.applied, Applied{Event: ev, At: in.clk.Now()})
	}
	return err
}

// degrade applies Extra/Loss to the affected directed links: every link
// when the group is empty, otherwise each link touching a group node's
// endpoints. It reports whether the driver had a fabric to degrade.
// Callers hold in.mu.
func (in *Injector) degrade(ev Event) bool {
	ta, tr := in.fabric()
	if tr == nil {
		return false // no message fabric to degrade
	}
	all := tr.Endpoints()
	targets := all
	if len(ev.Group) > 0 {
		targets = targets[:0:0]
		for _, node := range ev.Group {
			targets = append(targets, ta.NodeEndpoints(node)...)
		}
	}
	for _, t := range targets {
		for _, other := range all {
			if other == t {
				continue
			}
			tr.DegradeLink(t, other, ev.Extra, ev.Loss)
			tr.DegradeLink(other, t, ev.Extra, ev.Loss)
		}
	}
	in.degraded = true
	return true
}

// corruptLog applies a TornWrite or CorruptRecord to the target node's WAL.
// It reports whether anything was damaged: drivers without a WALAccessor, a
// nil log, or a log too short to corrupt all decay to no-ops. Callers hold
// in.mu.
func (in *Injector) corruptLog(ev Event) bool {
	wa, ok := in.drv.(WALAccessor)
	if !ok {
		return false // no durable plane to corrupt
	}
	log := wa.NodeWAL(ev.Node)
	if log == nil {
		return false
	}
	if ev.Kind == TornWrite {
		return log.InjectTornWrite()
	}
	return log.InjectCorruptRecord()
}

// restoreAll returns the system to full health.
func (in *Injector) restoreAll(h clock.Handle) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, node := range in.partitioned {
		_ = in.drv.RestartNode(h, node)
	}
	in.partitioned = nil
	for node := range in.crashed {
		_ = in.drv.RestartNode(h, node)
		delete(in.crashed, node)
	}
	in.healLinks()
}

// fabric returns the driver's transport accessor and message fabric; the
// transport is nil when the driver has no fabric, whether it lacks the
// accessor or its FaultTransport returns nil.
func (in *Injector) fabric() (TransportAccessor, *network.Transport) {
	ta, ok := in.drv.(TransportAccessor)
	if !ok {
		return nil, nil
	}
	return ta, ta.FaultTransport()
}

// healLinks clears every link degradation the injector applied. Callers
// hold in.mu.
func (in *Injector) healLinks() {
	if !in.degraded {
		return
	}
	if _, tr := in.fabric(); tr != nil {
		tr.HealAll()
	}
	in.degraded = false
}

// Applied returns the events applied so far, in application order.
func (in *Injector) Applied() []Applied {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Applied, len(in.applied))
	copy(out, in.applied)
	return out
}
