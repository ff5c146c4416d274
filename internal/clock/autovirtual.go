package clock

import (
	"container/heap"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"
)

// SimEpoch is the instant every auto-advancing virtual run starts at. A
// fixed epoch keeps absolute timestamps (and therefore serialized results)
// identical across runs and machines.
var SimEpoch = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// Walltime returns the host wall-clock time. It is the single sanctioned
// wall-clock read outside resultdb's report timestamp: simulated-time
// speedup is sim-seconds divided by a wall measurement, which is
// definitionally not part of the deterministic surface.
func Walltime() time.Time { return time.Now() }

// AutoVirtual is a Virtual clock that advances itself. Goroutines
// participating in a run register as actors; the clock hands an execution
// token to exactly one actor at a time, so the whole simulation executes as
// one deterministic serial order. When every actor is parked in a blocking
// primitive (Handle.Await, Handle.Sleep, Mailbox.Send, Group.Wait) the clock
// jumps atomically to the earliest pending deadline — no polling, no
// wall-clock sleeps. If every actor is parked and no deadline remains, the
// run cannot ever make progress and the clock fails loudly with the
// parked-actor list.
//
// The contract actors must keep: every potentially blocking operation goes
// through the clock-aware primitives, called with the actor's own Handle.
// The handle is the caller's identity: the scheduler knows which actor
// holds the token, so each primitive checks the handle against it with one
// pointer compare. An actor that blocks on a bare channel while holding the
// token freezes the whole clock (undetectably), which is exactly the bug
// the wall-clock lint and the deadlock detector exist to keep out of the
// tree.
type AutoVirtual struct {
	*Virtual
}

var _ Clock = (*AutoVirtual)(nil)

// NewAutoVirtual returns an auto-advancing virtual clock starting at
// SimEpoch.
func NewAutoVirtual() *AutoVirtual {
	v := NewVirtual(SimEpoch)
	v.auto = &autoCore{
		v:      v,
		actors: make(map[*Actor]struct{}),
	}
	return &AutoVirtual{Virtual: v}
}

// Sleep is unsupported on AutoVirtual: the clock cannot tell which actor
// is calling. Use the actor's Handle.Sleep instead.
func (av *AutoVirtual) Sleep(d time.Duration) {
	panic("clock: AutoVirtual.Sleep has no caller identity; use Handle.Sleep")
}

// After is unsupported on AutoVirtual: a bare channel receive blocks the
// holding actor without parking it, freezing the clock. Use NewTimer with
// Handle.Await (or Handle.Sleep) instead.
func (av *AutoVirtual) After(d time.Duration) <-chan time.Time {
	panic("clock: AutoVirtual.After would block without parking; use NewTimer + Await")
}

// SetDeadlockHandler replaces the default deadlock reaction (panic) with
// fn, which receives the diagnostic message. Intended for tests.
func (av *AutoVirtual) SetDeadlockHandler(fn func(msg string)) {
	av.mu.Lock()
	av.auto.onDeadlock = fn
	av.mu.Unlock()
}

// autoOf extracts the auto-advancing core from a clock; ok is false for
// Real and plain Virtual clocks, which keeps every primitive below
// backward-compatible with channel-based blocking.
func autoOf(c Clock) (*Virtual, bool) {
	if av, ok := c.(*AutoVirtual); ok {
		return av.Virtual, true
	}
	return nil, false
}

type actorState int

const (
	actorRunning actorState = iota // holds the execution token
	actorReady                     // queued for the token
	actorParked                    // blocked in a clock primitive
)

// Actor is one registered participant of an auto-advancing run.
type Actor struct {
	v         *Virtual
	name      string
	state     actorState
	grant     chan struct{}
	waiterSeq int64 // per-actor timer creation counter (tie-break identity)
}

// autoCore is the cooperative scheduler behind AutoVirtual. All fields are
// guarded by the owning Virtual's mutex.
type autoCore struct {
	v          *Virtual
	actors     map[*Actor]struct{}
	current    *Actor   // token holder, nil while idle or advancing
	runq       []*Actor // FIFO of actors ready for the token
	forking    int      // children announced by Fork but not yet registered
	arrivals   []*Actor // registered fork-wave children awaiting release
	dead       bool
	onDeadlock func(msg string)
}

// Handle is a registered caller's identity, and every primitive that can
// park takes it: Await, Sleep, Mailbox.Send and Group.Wait. Under
// AutoVirtual it names the actor, and each primitive panics unless that
// actor holds the execution token. On Real and plain Virtual clocks it
// carries the clock and the primitives block on channels. The zero Handle
// has neither: it may Await Real and plain Virtual sources, panics on
// AutoVirtual ones and cannot Sleep.
type Handle struct {
	a *Actor // AutoVirtual only
	c Clock  // Real and plain Virtual only
}

// Close detaches the actor from the clock and releases the execution token.
// It must be the goroutine's final interaction with the clock.
func (h Handle) Close() {
	if h.a != nil {
		h.a.close()
	}
}

// Register joins the calling goroutine to the clock's schedule under the
// given name, blocking until it is granted the execution token. On real and
// plain-virtual clocks it only binds the handle to the clock. Names feed the
// deterministic timer tie-break and the deadlock diagnostics, so they must
// be derived from stable identities (node IDs, shard indices), never from
// creation order.
func Register(c Clock, name string) Handle {
	av, ok := c.(*AutoVirtual)
	if !ok {
		return Handle{c: c}
	}
	return Handle{a: av.register(name, false)}
}

// Fork announces that the current actor is about to spawn n goroutines that
// will each call RegisterForked. The clock will not advance past the
// spawn gap, however the children's goroutines are scheduled by the OS.
func Fork(c Clock, n int) {
	av, ok := c.(*AutoVirtual)
	if !ok {
		return
	}
	av.mu.Lock()
	av.auto.forking += n
	av.mu.Unlock()
}

// RegisterForked joins a goroutine announced by Fork, blocking until it is
// granted the execution token. Announced registrants are held back until the
// whole fork wave has arrived and then released in name order at the next
// scheduling point, behind every actor already queued for the token. The
// wave therefore lands in the same place whether its last child registers
// before or after the token holder wakes other actors, so the OS scheduling
// order of the spawned goroutines never leaks into the schedule.
func RegisterForked(c Clock, name string) Handle {
	av, ok := c.(*AutoVirtual)
	if !ok {
		return Handle{c: c}
	}
	return Handle{a: av.register(name, true)}
}

func (av *AutoVirtual) register(name string, forked bool) *Actor {
	v := av.Virtual
	a := &Actor{v: v, name: name, grant: make(chan struct{}, 1)}
	v.mu.Lock()
	core := v.auto
	core.actors[a] = struct{}{}
	if forked && core.forking > 0 {
		core.forking--
		a.state = actorReady
		core.arrivals = append(core.arrivals, a)
		if core.forking == 0 {
			core.kickLocked()
		}
		v.mu.Unlock()
		<-a.grant
		return a
	}
	if core.current == nil && len(core.runq) == 0 {
		// Sole runnable actor: take the token immediately.
		core.current = a
		a.state = actorRunning
		v.mu.Unlock()
		return a
	}
	a.state = actorReady
	core.runq = append(core.runq, a)
	core.kickLocked()
	v.mu.Unlock()
	<-a.grant
	return a
}

// flushArrivalsLocked releases a completed fork wave into the run queue in
// name order. Actor names must therefore be unique within a wave for the
// release order to be fully deterministic. Only scheduleLocked calls it, so
// a wave is released at a scheduling point, never mid-turn.
func (c *autoCore) flushArrivalsLocked() {
	sort.Slice(c.arrivals, func(i, j int) bool { return c.arrivals[i].name < c.arrivals[j].name })
	c.runq = append(c.runq, c.arrivals...)
	c.arrivals = nil
}

func (a *Actor) close() {
	v := a.v
	v.mu.Lock()
	core := v.auto
	delete(core.actors, a)
	if core.current == a {
		core.current = nil
		core.scheduleLocked()
	} else {
		for i, q := range core.runq {
			if q == a {
				core.runq = append(core.runq[:i], core.runq[i+1:]...)
				break
			}
		}
	}
	v.mu.Unlock()
}

// kickLocked dispatches the scheduler if the token is unheld.
func (c *autoCore) kickLocked() {
	if c.current == nil {
		c.scheduleLocked()
	}
}

// scheduleLocked hands the token to the next ready actor. While a fork wave
// is still arriving it stays idle: the wave is released whole, after the
// actors already queued, once its last child registers. With no ready actor
// and no pending fork, every registered actor is parked, so the clock
// advances to the earliest deadline and fires it; deadlines fire one at a
// time so execution stays a single serial order even for timers sharing an
// instant. An empty heap with parked actors is a deadlock.
func (c *autoCore) scheduleLocked() {
	if c.current != nil || c.dead {
		return
	}
	for {
		if c.forking > 0 {
			return // children on the way: release their wave whole
		}
		if len(c.arrivals) > 0 {
			c.flushArrivalsLocked()
		}
		if len(c.runq) > 0 {
			a := c.runq[0]
			copy(c.runq, c.runq[1:])
			c.runq[len(c.runq)-1] = nil
			c.runq = c.runq[:len(c.runq)-1]
			c.current = a
			a.state = actorRunning
			a.grant <- struct{}{}
			return
		}
		if len(c.actors) == 0 {
			return // nothing registered: stay idle
		}
		if !c.advanceLocked() {
			c.deadlockLocked()
			return
		}
	}
}

// advanceLocked jumps the clock to the earliest live deadline and fires it,
// waking that waiter's parked watchers. Returns false when no live waiter
// remains.
func (c *autoCore) advanceLocked() bool {
	v := c.v
	for len(v.waiters) > 0 {
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
		if w.wake != nil {
			w.wake.wakeLocked(c)
		}
		return true
	}
	return false
}

func (c *autoCore) wakeLocked(a *Actor) {
	if a.state == actorParked {
		a.state = actorReady
		c.runq = append(c.runq, a)
	}
}

// holdLocked enters a parking primitive on v's schedule: it panics, with
// v.mu released, unless a is the actor holding v's execution token. Callers
// hold v.mu.
func (v *Virtual) holdLocked(a *Actor, op string) {
	if a == nil {
		v.mu.Unlock()
		panic("clock: " + op + " on an AutoVirtual clock needs the calling actor's Handle")
	}
	if v.auto.current != a {
		v.mu.Unlock()
		panic("clock: actor " + a.name + " called " + op + " without holding the execution token")
	}
}

// parkLocked releases the token and blocks the actor until a wake re-grants
// it. Callers hold v.mu and have passed holdLocked; v.mu is held again on
// return.
func (v *Virtual) parkLocked(a *Actor) {
	core := v.auto
	a.state = actorParked
	core.current = nil
	core.scheduleLocked()
	v.mu.Unlock()
	<-a.grant
	v.mu.Lock()
}

// deadlockLocked reports that every actor is parked with nothing left to
// fire. The handler runs on its own goroutine so diagnostics (or a test's
// recovery) never deadlock on the clock mutex; the default handler panics.
func (c *autoCore) deadlockLocked() {
	if c.dead {
		return
	}
	c.dead = true
	names := make([]string, 0, len(c.actors))
	for a := range c.actors {
		names = append(names, a.name)
	}
	sort.Strings(names)
	msg := fmt.Sprintf("clock: deadlock: all %d actors parked with no pending timers at %s: %s",
		len(names), c.v.now.Format(time.RFC3339Nano), strings.Join(names, ", "))
	h := c.onDeadlock
	if h == nil {
		h = func(m string) { panic(m) }
	}
	go h(msg)
}

// watchers is the parked-actor list attached to a waitable resource; wakes
// preserve attach order so scheduling stays deterministic.
type watchers struct{ list []*Actor }

func (w *watchers) add(a *Actor) {
	for _, x := range w.list {
		if x == a {
			return
		}
	}
	w.list = append(w.list, a)
}

func (w *watchers) remove(a *Actor) {
	for i, x := range w.list {
		if x == a {
			w.list = append(w.list[:i], w.list[i+1:]...)
			return
		}
	}
}

func (w *watchers) wakeLocked(c *autoCore) {
	for _, a := range w.list {
		c.wakeLocked(a)
	}
}

// Waitable is a blocking source Await can select over: the clock's timers
// and tickers, Gate, and Mailbox. Implementations are provided by this
// package only.
type Waitable interface {
	// waitChan is the receive channel used outside auto-virtual scheduling.
	waitChan() reflect.Value
	// attach/detach subscribe a parked actor to the source's wake list;
	// tryConsumeLocked reports readiness and consumes the ready value.
	// All three run under the owning clock's mutex.
	attach(a *Actor)
	detach(a *Actor)
	tryConsumeLocked() (val any, ok bool, ready bool)
}

// Await blocks until one of the sources is ready and consumes it, returning
// the ready source's index, its value, and the receive's ok flag (false for
// a closed Gate or a closed, drained Mailbox). Under AutoVirtual the handle
// must be the actor holding the execution token; readiness is checked in
// argument order — lowest index wins — making multi-ready races
// deterministic, so put the stop gate first to let shutdown beat pending
// work. On Real and plain Virtual clocks Await is a channel select with Go's
// pseudo-random tie-break.
func (h Handle) Await(srcs ...Waitable) (idx int, val any, ok bool) {
	if a := h.a; a != nil {
		v := a.v
		v.mu.Lock()
		v.holdLocked(a, "Await")
		return v.await(a, srcs)
	}
	return selectRecv(srcs)
}

// Sleep blocks the caller for d on the handle's clock; under AutoVirtual
// the actor parks until the clock reaches the deadline.
func (h Handle) Sleep(d time.Duration) {
	a := h.a
	if a == nil {
		if h.c == nil {
			panic("clock: Sleep on the zero Handle; Register with the clock first")
		}
		h.c.Sleep(d)
		return
	}
	v := a.v
	v.mu.Lock()
	v.holdLocked(a, "Sleep")
	v.await(a, []Waitable{v.newTimerAtLocked(v.now.Add(d))})
}

// selectRecv is the channel path of Await. AutoVirtual sources have no
// valid channel to select on, so a handle without an actor (the zero
// Handle, or one bound to another clock) panics on them instead of
// blocking the token holder unseen.
func selectRecv(srcs []Waitable) (idx int, val any, ok bool) {
	cases := make([]reflect.SelectCase, len(srcs))
	for i, s := range srcs {
		ch := s.waitChan()
		if !ch.IsValid() {
			panic("clock: Await on an AutoVirtual source needs the calling actor's registered Handle")
		}
		cases[i] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: ch}
	}
	i, rv, rok := reflect.Select(cases)
	if rv.IsValid() {
		val = rv.Interface()
	}
	return i, val, rok
}

// await is the auto-virtual path of Await; v.mu is held on entry and
// released before returning.
func (v *Virtual) await(a *Actor, srcs []Waitable) (int, any, bool) {
	for {
		for i, s := range srcs {
			if val, ok, ready := s.tryConsumeLocked(); ready {
				for _, s2 := range srcs {
					s2.detach(a)
				}
				v.mu.Unlock()
				return i, val, ok
			}
		}
		for _, s := range srcs {
			s.attach(a)
		}
		v.parkLocked(a)
	}
}

// Gate is a broadcast close signal (the stop/done channel idiom) that
// parks auto-virtual actors instead of blocking them. The zero value is not
// usable; construct with NewGate.
type Gate struct {
	v      *Virtual // non-nil only under AutoVirtual
	mu     sync.Mutex
	ch     chan struct{}
	closed bool
	w      watchers
}

// NewGate builds a gate bound to the clock's scheduling mode.
func NewGate(c Clock) *Gate {
	g := &Gate{ch: make(chan struct{})}
	if v, ok := autoOf(c); ok {
		g.v = v
	}
	return g
}

// Close opens the gate exactly once, waking every waiter; further Closes
// are no-ops.
func (g *Gate) Close() {
	if g.v == nil {
		g.mu.Lock()
		if !g.closed {
			g.closed = true
			close(g.ch)
		}
		g.mu.Unlock()
		return
	}
	g.v.mu.Lock()
	if !g.closed {
		g.closed = true
		close(g.ch)
		g.w.wakeLocked(g.v.auto)
		g.v.auto.kickLocked()
	}
	g.v.mu.Unlock()
}

// Closed reports whether the gate has been closed.
func (g *Gate) Closed() bool {
	if g.v == nil {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.closed
	}
	g.v.mu.Lock()
	defer g.v.mu.Unlock()
	return g.closed
}

// C exposes the underlying channel for native selects on the real-clock
// path; auto-virtual actors must use Await instead.
func (g *Gate) C() <-chan struct{} { return g.ch }

// waitChan is invalid under AutoVirtual: only a registered actor may wait.
func (g *Gate) waitChan() reflect.Value {
	if g.v != nil {
		return reflect.Value{}
	}
	return reflect.ValueOf(g.ch)
}
func (g *Gate) attach(a *Actor) { g.w.add(a) }
func (g *Gate) detach(a *Actor) { g.w.remove(a) }
func (g *Gate) tryConsumeLocked() (any, bool, bool) {
	if g.closed {
		return nil, false, true
	}
	return nil, false, false
}

// Mailbox is a bounded FIFO whose blocking operations park auto-virtual
// actors. Capacity must be at least 1. On real and plain-virtual clocks it
// behaves exactly like a buffered channel. Under AutoVirtual it is a slice
// queue guarded by the clock mutex that grows on demand up to the capacity,
// so a large bound costs nothing until it is used.
type Mailbox[T any] struct {
	v        *Virtual // non-nil only under AutoVirtual
	capacity int
	q        []T // AutoVirtual: queued values from head on
	head     int
	mu       sync.Mutex
	ch       chan T // Real and plain Virtual only
	closed   bool
	recvW    watchers // actors parked in Await
	sendW    watchers // actors parked in Send
}

// NewMailbox builds a mailbox with the given capacity (floored at 1).
func NewMailbox[T any](c Clock, capacity int) *Mailbox[T] {
	if capacity < 1 {
		capacity = 1
	}
	m := &Mailbox[T]{capacity: capacity}
	if v, ok := autoOf(c); ok {
		m.v = v
	} else {
		m.ch = make(chan T, capacity)
	}
	return m
}

// Send enqueues val, blocking while the mailbox is full. It returns false
// without enqueueing when the mailbox is closed or abort (which may be nil)
// closes first. Under AutoVirtual h must be the actor holding the execution
// token.
func (m *Mailbox[T]) Send(h Handle, val T, abort *Gate) bool {
	if m.v == nil {
		if m.isClosed() {
			return false
		}
		if abort == nil {
			m.ch <- val
			return true
		}
		select {
		case m.ch <- val:
			return true
		case <-abort.ch:
			return false
		}
	}
	v, a := m.v, h.a
	v.mu.Lock()
	v.holdLocked(a, "Mailbox.Send")
	for {
		if m.closed || (abort != nil && abort.closed) {
			m.sendW.remove(a)
			if abort != nil {
				abort.w.remove(a)
			}
			v.mu.Unlock()
			return false
		}
		if m.lenLocked() < m.capacity {
			m.pushLocked(val)
			m.sendW.remove(a)
			if abort != nil {
				abort.w.remove(a)
			}
			v.mu.Unlock()
			return true
		}
		m.sendW.add(a)
		if abort != nil {
			abort.w.add(a)
		}
		v.parkLocked(a)
	}
}

// TrySend enqueues val without blocking, reporting whether it fit.
func (m *Mailbox[T]) TrySend(val T) bool {
	if m.v == nil {
		if m.isClosed() {
			return false
		}
		select {
		case m.ch <- val:
			return true
		default:
			return false
		}
	}
	v := m.v
	v.mu.Lock()
	defer v.mu.Unlock()
	if m.closed || m.lenLocked() >= m.capacity {
		return false
	}
	m.pushLocked(val)
	v.auto.kickLocked()
	return true
}

// Close marks the mailbox closed: receivers drain the buffer then observe
// ok=false, senders fail. Only the sole sender may close a real-clock
// mailbox (channel close semantics); the auto-virtual path tolerates any
// closer.
func (m *Mailbox[T]) Close() {
	if m.v == nil {
		m.mu.Lock()
		if !m.closed {
			m.closed = true
			close(m.ch)
		}
		m.mu.Unlock()
		return
	}
	m.v.mu.Lock()
	if !m.closed {
		m.closed = true
		m.recvW.wakeLocked(m.v.auto)
		m.sendW.wakeLocked(m.v.auto)
		m.v.auto.kickLocked()
	}
	m.v.mu.Unlock()
}

// Len reports the number of buffered values.
func (m *Mailbox[T]) Len() int {
	if m.v == nil {
		return len(m.ch)
	}
	m.v.mu.Lock()
	defer m.v.mu.Unlock()
	return m.lenLocked()
}

func (m *Mailbox[T]) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

func (m *Mailbox[T]) lenLocked() int { return len(m.q) - m.head }

// pushLocked appends val to the queue and wakes parked receivers. A full
// backing array whose consumed prefix is at least half of it is compacted
// instead of grown, so each value is copied O(1) times amortized however
// close the backlog stays to the capacity.
func (m *Mailbox[T]) pushLocked(val T) {
	if len(m.q) == cap(m.q) && m.head > 0 && 2*m.head >= len(m.q) {
		n := copy(m.q, m.q[m.head:])
		clear(m.q[n:])
		m.q = m.q[:n]
		m.head = 0
	}
	m.q = append(m.q, val)
	m.recvW.wakeLocked(m.v.auto)
}

// waitChan is invalid under AutoVirtual, where the mailbox has no channel.
func (m *Mailbox[T]) waitChan() reflect.Value {
	if m.ch == nil {
		return reflect.Value{}
	}
	return reflect.ValueOf(m.ch)
}
func (m *Mailbox[T]) attach(a *Actor) { m.recvW.add(a) }
func (m *Mailbox[T]) detach(a *Actor) { m.recvW.remove(a) }
func (m *Mailbox[T]) tryConsumeLocked() (any, bool, bool) {
	if m.lenLocked() > 0 {
		var zero T
		val := m.q[m.head]
		m.q[m.head] = zero
		m.head++
		if m.head == len(m.q) {
			m.q, m.head = m.q[:0], 0
		}
		m.sendW.wakeLocked(m.v.auto)
		return val, true, true
	}
	if m.closed {
		var zero T
		return zero, false, true
	}
	return nil, false, false
}

// Group is a join counter (the sync.WaitGroup idiom) whose Wait parks
// auto-virtual actors. On other clocks it delegates to sync.WaitGroup.
type Group struct {
	v  *Virtual // non-nil only under AutoVirtual
	wg sync.WaitGroup
	n  int
	w  watchers
}

// NewGroup builds a join group bound to the clock's scheduling mode.
func NewGroup(c Clock) *Group {
	g := &Group{}
	if v, ok := autoOf(c); ok {
		g.v = v
	}
	return g
}

// Add increments the join counter.
func (g *Group) Add(n int) {
	if g.v == nil {
		g.wg.Add(n)
		return
	}
	g.v.mu.Lock()
	g.n += n
	g.v.mu.Unlock()
}

// Done decrements the join counter, waking waiters at zero.
func (g *Group) Done() {
	if g.v == nil {
		g.wg.Done()
		return
	}
	g.v.mu.Lock()
	g.n--
	if g.n < 0 {
		g.v.mu.Unlock()
		panic("clock: Group counter went negative")
	}
	if g.n == 0 {
		g.w.wakeLocked(g.v.auto)
		g.v.auto.kickLocked()
	}
	g.v.mu.Unlock()
}

// Wait blocks until the counter reaches zero. Under AutoVirtual h must be
// the actor holding the execution token.
func (g *Group) Wait(h Handle) {
	if g.v == nil {
		g.wg.Wait()
		return
	}
	v, a := g.v, h.a
	v.mu.Lock()
	v.holdLocked(a, "Group.Wait")
	for g.n > 0 {
		g.w.add(a)
		v.parkLocked(a)
	}
	g.w.remove(a)
	v.mu.Unlock()
}
