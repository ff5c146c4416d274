// Fixture for the parklock analyzer: parking on a clock primitive while
// a sync mutex acquired in the same function is held — the re-entrant
// deadlock shape fixed twice already (NodeGate replay in PR 7,
// DurableGate latency charging in PR 8).
package fixture

import (
	"sync"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/systems"
)

type node struct {
	mu    sync.Mutex
	state sync.RWMutex
	inbox *clock.Mailbox[int]
	stop  *clock.Gate
}

func (n *node) sendWhileLocked(h clock.Handle) {
	n.mu.Lock()
	n.inbox.Send(h, 1, n.stop) // want `Mailbox.Send can park while mutex "n.mu"`
	n.mu.Unlock()
}

func (n *node) deferredUnlock(h clock.Handle, g *clock.Group) {
	n.mu.Lock()
	defer n.mu.Unlock()
	g.Wait(h) // want `Group.Wait can park while mutex "n.mu"`
}

func (n *node) handleSleepUnderRLock(h clock.Handle) {
	n.state.RLock()
	h.Sleep(1) // want `Handle.Sleep can park while mutex "n.state"`
	n.state.RUnlock()
}

func (n *node) awaitUnderRLock(h clock.Handle) {
	n.state.RLock()
	h.Await(n.stop) // want `Handle.Await can park while mutex "n.state"`
	n.state.RUnlock()
}

func (n *node) sleepUnderLock(c clock.Clock) {
	n.mu.Lock()
	c.Sleep(1) // want `Clock.Sleep can park while mutex "n.mu"`
	n.mu.Unlock()
}

func (n *node) timerWaitUnderLock(c clock.Clock) {
	t := c.NewTimer(1)
	n.mu.Lock()
	<-t.C() // want `<-Timer.C\(\) can park while mutex "n.mu"`
	n.mu.Unlock()
	t.Stop()
}

func gateWhileLocked(h clock.Handle, d *systems.DurableGate, mu *sync.Mutex) {
	mu.Lock()
	d.Do(h, func() {}) // want `DurableGate.Do can park while mutex "mu"`
	mu.Unlock()
}

// Release before parking: no findings.
func (n *node) releasedFirst(h clock.Handle) {
	n.mu.Lock()
	n.mu.Unlock()
	h.Await(n.stop)
}

// An unlock on the early-return path does not release the fall-through
// path, which still holds the mutex when it parks.
func (n *node) branchUnlock(h clock.Handle, early bool) {
	n.mu.Lock()
	if early {
		n.mu.Unlock()
		return
	}
	h.Await(n.stop) // want `Handle.Await can park while mutex "n.mu"`
	n.mu.Unlock()
}

// Non-parking mailbox operations are fine under a lock.
func (n *node) tryOpsAreFine() {
	n.mu.Lock()
	n.inbox.TrySend(2)
	_ = n.inbox.Len()
	n.mu.Unlock()
}
