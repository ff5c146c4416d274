package clock

import (
	"container/heap"
	"reflect"
	"sync"
	"time"
)

// Virtual is a deterministic clock for tests. Time only moves when Advance is
// called; timers and tickers fire synchronously during Advance in timestamp
// order, which makes timing-sensitive consensus tests reproducible.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
	seq     int64
	auto    *autoCore // non-nil only when wrapped by AutoVirtual
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock starting at the given instant.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Sleep implements Clock. It blocks until another goroutine advances the
// clock past the deadline.
func (v *Virtual) Sleep(d time.Duration) { <-v.After(d) }

// After implements Clock.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	ch := make(chan time.Time, 1)
	v.addWaiterLocked(&waiter{at: v.now.Add(d), ch: ch})
	return ch
}

// NewTicker implements Clock.
func (v *Virtual) NewTicker(d time.Duration) Ticker {
	v.mu.Lock()
	defer v.mu.Unlock()
	t := &virtualTicker{clk: v, period: d, ch: make(chan time.Time, 1)}
	t.w = &waiter{at: v.now.Add(d), ch: t.ch, repeat: d, wake: &t.watch}
	v.addWaiterLocked(t.w)
	return t
}

// NewTimer implements Clock.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.newTimerAtLocked(v.now.Add(d))
}

// NewTimerAt implements Clock. A deadline at or before the current virtual
// instant fires immediately rather than waiting for an Advance, so callers
// arming an absolute deadline cannot lose a wake-up to a concurrent
// Advance.
func (v *Virtual) NewTimerAt(at time.Time) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.newTimerAtLocked(at)
}

func (v *Virtual) newTimerAtLocked(at time.Time) Timer {
	t := &virtualTimer{clk: v, ch: make(chan time.Time, 1)}
	t.w = &waiter{at: at, ch: t.ch, wake: &t.watch}
	if !at.After(v.now) {
		t.w.stopped = true // never enters the heap
		t.ch <- v.now
		return t
	}
	v.addWaiterLocked(t.w)
	return t
}

// Advance moves the clock forward by d, firing every timer and ticker whose
// deadline falls within the window, in order.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	target := v.now.Add(d)
	for len(v.waiters) > 0 && !v.waiters[0].at.After(target) {
		w := heap.Pop(&v.waiters).(*waiter)
		if w.stopped {
			continue
		}
		v.now = w.at
		select {
		case w.ch <- w.at:
		default: // slow receiver: drop the tick, as time.Ticker does
		}
		if w.repeat > 0 {
			w.at = w.at.Add(w.repeat)
			v.addWaiterLocked(w)
		}
	}
	v.now = target
	v.mu.Unlock()
}

// PendingWaiters reports the number of live timers/tickers, useful for
// asserting that components cleaned up after themselves.
func (v *Virtual) PendingWaiters() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, w := range v.waiters {
		if !w.stopped {
			n++
		}
	}
	return n
}

// addWaiterLocked enqueues the waiter with a deterministic tie-break
// identity. A waiter created by an actor holding an AutoVirtual's execution
// token is keyed by (actor name, per-actor counter), which is independent of
// the OS scheduling order actors happened to start in; everything else falls
// back to the clock-global creation sequence (the empty tieName sorts first,
// preserving plain-Virtual ordering exactly).
func (v *Virtual) addWaiterLocked(w *waiter) {
	if v.auto != nil && v.auto.current != nil {
		a := v.auto.current
		a.waiterSeq++
		w.tieName = a.name
		w.tieSeq = a.waiterSeq
	} else {
		v.seq++
		w.tieName = ""
		w.tieSeq = v.seq
	}
	heap.Push(&v.waiters, w)
}

type waiter struct {
	at      time.Time
	ch      chan time.Time
	repeat  time.Duration
	stopped bool
	tieName string
	tieSeq  int64
	wake    *watchers // actors parked on this waiter via Await (auto mode)
	index   int
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		if h[i].tieName != h[j].tieName {
			return h[i].tieName < h[j].tieName
		}
		return h[i].tieSeq < h[j].tieSeq
	}
	return h[i].at.Before(h[j].at)
}
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *waiterHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

type virtualTicker struct {
	clk    *Virtual
	period time.Duration
	ch     chan time.Time
	w      *waiter
	watch  watchers // survives Reset: replacement waiters reuse the pointer
}

func (t *virtualTicker) C() <-chan time.Time { return t.ch }

func (t *virtualTicker) Stop() {
	t.clk.mu.Lock()
	defer t.clk.mu.Unlock()
	t.w.stopped = true
}

func (t *virtualTicker) Reset(d time.Duration) {
	t.clk.mu.Lock()
	defer t.clk.mu.Unlock()
	t.w.stopped = true
	t.period = d
	t.w = &waiter{at: t.clk.now.Add(d), ch: t.ch, repeat: d, wake: &t.watch}
	t.clk.addWaiterLocked(t.w)
}

// waitChan is invalid under AutoVirtual: only a registered actor may wait.
func (t *virtualTicker) waitChan() reflect.Value {
	if t.clk.auto != nil {
		return reflect.Value{}
	}
	return reflect.ValueOf(t.ch)
}
func (t *virtualTicker) attach(a *Actor) { t.watch.add(a) }
func (t *virtualTicker) detach(a *Actor) { t.watch.remove(a) }
func (t *virtualTicker) tryConsumeLocked() (any, bool, bool) {
	if len(t.ch) > 0 {
		return <-t.ch, true, true
	}
	return nil, false, false
}

type virtualTimer struct {
	clk   *Virtual
	ch    chan time.Time
	w     *waiter
	watch watchers // survives Reset: replacement waiters reuse the pointer
}

func (t *virtualTimer) C() <-chan time.Time { return t.ch }

func (t *virtualTimer) Stop() bool {
	t.clk.mu.Lock()
	defer t.clk.mu.Unlock()
	active := !t.w.stopped && t.clk.now.Before(t.w.at)
	t.w.stopped = true
	return active
}

func (t *virtualTimer) Reset(d time.Duration) bool {
	t.clk.mu.Lock()
	defer t.clk.mu.Unlock()
	active := !t.w.stopped && t.clk.now.Before(t.w.at)
	t.w.stopped = true
	t.w = &waiter{at: t.clk.now.Add(d), ch: t.ch, wake: &t.watch}
	t.clk.addWaiterLocked(t.w)
	return active
}

// waitChan is invalid under AutoVirtual: only a registered actor may wait.
func (t *virtualTimer) waitChan() reflect.Value {
	if t.clk.auto != nil {
		return reflect.Value{}
	}
	return reflect.ValueOf(t.ch)
}
func (t *virtualTimer) attach(a *Actor) { t.watch.add(a) }
func (t *virtualTimer) detach(a *Actor) { t.watch.remove(a) }
func (t *virtualTimer) tryConsumeLocked() (any, bool, bool) {
	if len(t.ch) > 0 {
		return <-t.ch, true, true
	}
	return nil, false, false
}
