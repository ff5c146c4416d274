package network

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/trace"
)

// Message is a unit of delivery between endpoints. Payload is an opaque
// value; systems define their own message types.
type Message struct {
	From    string
	To      string
	Kind    string
	Payload any
	SentAt  time.Time
}

// Handler receives delivered messages. Handlers run on the transport's
// delivery workers and must not block indefinitely; h is the delivering
// worker's clock handle, for handlers that hand the message on through a
// clock primitive.
type Handler func(h clock.Handle, m Message)

// Errors returned by Transport operations.
var (
	ErrUnknownEndpoint = errors.New("network: unknown endpoint")
	ErrLinkDown        = errors.New("network: link is partitioned")
	ErrStopped         = errors.New("network: transport stopped")
)

// Transport is the in-process message fabric. Delivery is driven by a
// sharded timing-wheel scheduler (see wheel.go): Send computes a ready time
// from the latency model plus any link degradation, clamps it so messages
// on the same directed link never reorder (TCP's per-connection FIFO
// property the real deployments rely on), and enqueues into the destination
// endpoint's shard. A small pool of workers — one per shard — drains due
// messages in timestamp order.
//
// The hot path is engineered for zero contention between unrelated senders:
// topology and fault state (endpoints, cut links, degradations) live in an
// immutable snapshot swapped atomically by the mutating operations, send
// and delivery counters are per-shard padded atomics, loss randomness is
// drawn from per-link seeded RNGs, and handlers are resolved through an
// atomic pointer set at registration. No global lock is taken by Send,
// Broadcast, or the delivery workers.
type Transport struct {
	clk     clock.Clock
	latency LatencyModel
	t0      time.Time // wheel epoch; ready times are nanoseconds since t0
	seed    int64     // base seed for the per-link loss RNGs

	state atomic.Pointer[fabricState]
	mu    sync.Mutex // serializes snapshot mutations only
	links sync.Map   // linkKey -> *linkState

	// tracer, when set, records sampled network-hop spans (one per
	// scheduled delivery, per-link ordinal sampling).
	tracer atomic.Pointer[tracerInfo]

	shards []*shard
	wg     *clock.Group
	stop   *clock.Gate
}

// fabricState is the immutable topology/fault snapshot. Mutators clone it
// under Transport.mu and swap the pointer; Send and Broadcast read one
// coherent snapshot with a single atomic load.
type fabricState struct {
	stopped   bool
	endpoints map[string]*endpoint
	list      []*endpoint // sorted by name: deterministic broadcast fan-out
	cut       map[linkKey]bool
	degraded  map[linkKey]Degradation
}

func (st *fabricState) clone() *fabricState {
	ns := &fabricState{
		stopped:   st.stopped,
		endpoints: make(map[string]*endpoint, len(st.endpoints)+1),
		cut:       make(map[linkKey]bool, len(st.cut)),
		degraded:  make(map[linkKey]Degradation, len(st.degraded)),
	}
	for k, v := range st.endpoints {
		ns.endpoints[k] = v
	}
	for k, v := range st.cut {
		ns.cut[k] = v
	}
	for k, v := range st.degraded {
		ns.degraded[k] = v
	}
	return ns
}

func (st *fabricState) rebuildList() {
	st.list = make([]*endpoint, 0, len(st.endpoints))
	for _, ep := range st.endpoints {
		st.list = append(st.list, ep)
	}
	sort.Slice(st.list, func(i, j int) bool { return st.list[i].name < st.list[j].name })
}

// Degradation models a lossy, slow link: every message gains Extra one-way
// delay on top of the latency model, and is silently lost with probability
// Loss (the sender still sees a successful send, as with a real network).
type Degradation struct {
	Extra time.Duration
	Loss  float64
}

// endpoint is one registered delivery target. The handler is resolved once
// per delivery through an atomic pointer (re-registration swaps it), and
// pending tracks queue occupancy for overflow accounting.
type endpoint struct {
	name    string
	sh      *shard
	handler atomic.Pointer[Handler]
	pending atomic.Int64
	closed  atomic.Bool
}

// endpointQueueDepth bounds the per-endpoint in-flight queue. It is sized to
// absorb the largest burst the benchmarks generate; a full queue drops the
// message (counted), modeling kernel socket-buffer exhaustion.
const endpointQueueDepth = 65536

// NewTransport creates a fabric with the given latency model. A nil model
// defaults to ZeroLatency.
func NewTransport(clk clock.Clock, latency LatencyModel) *Transport {
	if latency == nil {
		latency = ZeroLatency{}
	}
	if clk == nil {
		clk = clock.New()
	}
	t := &Transport{
		clk:     clk,
		latency: latency,
		t0:      clk.Now(),
		seed:    0x10551, // deterministic loss draws
		stop:    clock.NewGate(clk),
		wg:      clock.NewGroup(clk),
	}
	t.state.Store(&fabricState{
		endpoints: make(map[string]*endpoint),
		cut:       make(map[linkKey]bool),
		degraded:  make(map[linkKey]Degradation),
	})
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 2 {
		n = 2
	}
	shards := 1
	for shards < n {
		shards <<= 1
	}
	t.shards = make([]*shard, shards)
	clock.Fork(clk, shards)
	for i := range t.shards {
		t.shards[i] = newShard(clk)
		t.wg.Add(1)
		go t.worker(i, t.shards[i])
	}
	return t
}

func (t *Transport) nowNanos() int64 { return int64(t.clk.Now().Sub(t.t0)) }

// tracerInfo pairs the span sink with the Perfetto process row the hops
// render under (the owning system's name).
type tracerInfo struct {
	tr   *trace.Tracer
	proc string
}

// SetTracer attaches a span sink: sampled hops record one "net" span whose
// extent is the message's exact scheduled flight time (latency model plus
// degradation plus the FIFO clamp). Sampling is by per-link message
// ordinal mixed with the link hash, so it is deterministic under the
// virtual clock. A nil tracer detaches.
func (t *Transport) SetTracer(tr *trace.Tracer, proc string) {
	if tr == nil {
		t.tracer.Store(nil)
		return
	}
	t.tracer.Store(&tracerInfo{tr: tr, proc: proc})
}

// PendingCount reports messages scheduled but not yet delivered, summed
// over every endpoint's queue — the timing wheel's in-flight backlog, and
// the telemetry plane's netPending gauge.
func (t *Transport) PendingCount() int64 {
	var n int64
	for _, ep := range t.state.Load().list {
		n += ep.pending.Load()
	}
	return n
}

// shardFor pins an endpoint name to a shard (FNV-1a hash).
func (t *Transport) shardFor(name string) *shard {
	return t.shards[fnvAdd(fnvOffset64, name)&uint64(len(t.shards)-1)]
}

func (t *Transport) link(k linkKey) *linkState {
	if v, ok := t.links.Load(k); ok {
		return v.(*linkState)
	}
	v, _ := t.links.LoadOrStore(k, &linkState{})
	return v.(*linkState)
}

// Register attaches a named endpoint with a message handler. Registering
// the same name twice atomically replaces the handler.
func (t *Transport) Register(name string, h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state.Load()
	if st.stopped {
		return
	}
	if ep, ok := st.endpoints[name]; ok {
		hp := h
		ep.handler.Store(&hp)
		return
	}
	ep := &endpoint{name: name, sh: t.shardFor(name)}
	hp := h
	ep.handler.Store(&hp)
	ns := st.clone()
	ns.endpoints[name] = ep
	ns.rebuildList()
	t.state.Store(ns)
}

// Unregister detaches an endpoint; queued messages for it are dropped.
func (t *Transport) Unregister(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state.Load()
	ep, ok := st.endpoints[name]
	if !ok {
		return
	}
	ep.closed.Store(true)
	ns := st.clone()
	delete(ns.endpoints, name)
	ns.rebuildList()
	t.state.Store(ns)
}

// Endpoints returns the names of all registered endpoints, sorted.
func (t *Transport) Endpoints() []string {
	st := t.state.Load()
	names := make([]string, 0, len(st.list))
	for _, ep := range st.list {
		names = append(names, ep.name)
	}
	return names
}

// Send schedules delivery of a message. It returns an error when the
// destination is unknown, the link is cut, or the transport is stopped.
func (t *Transport) Send(from, to, kind string, payload any) error {
	st := t.state.Load()
	if st.stopped {
		return ErrStopped
	}
	if st.cut[linkKey{from, to}] {
		return ErrLinkDown
	}
	ep, ok := st.endpoints[to]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEndpoint, to)
	}
	return t.sendTo(st, from, ep, kind, payload, t.clk.Now())
}

// sendTo schedules one message to a resolved endpoint. Callers have
// already checked the stopped and cut-link states on the same snapshot.
func (t *Transport) sendTo(st *fabricState, from string, ep *endpoint, kind string, payload any, now time.Time) error {
	lk := linkKey{from, ep.name}
	deg, isDegraded := st.degraded[lk]

	delay := t.latency.Delay(from, ep.name)
	if isDegraded {
		delay += deg.Extra
	}
	nowN := int64(now.Sub(t.t0))
	readyN := nowN
	if delay > 0 {
		readyN += int64(delay)
	}

	// Per-link FIFO clamp and loss draw. Only senders of this exact
	// directed link share this mutex.
	ti := t.tracer.Load()
	ls := t.link(lk)
	lost := false
	var hopN uint64
	ls.mu.Lock()
	if readyN < ls.lastReady {
		readyN = ls.lastReady
	}
	ls.lastReady = readyN
	if isDegraded && deg.Loss > 0 {
		if ls.rng == nil {
			ls.rng = rand.New(rand.NewSource(linkSeed(t.seed, from, ep.name)))
		}
		lost = ls.rng.Float64() < deg.Loss
	}
	if ti != nil {
		hopN = ls.hops
		ls.hops++
	}
	ls.mu.Unlock()
	if ti != nil && !lost {
		// The ordinal decides membership; the link hash decorrelates the
		// sampled ordinals across links.
		if ti.tr.Sampled(hopN ^ fnvAdd(fnvAdd(fnvOffset64, from), ep.name)) {
			startN := now.UnixNano()
			ti.tr.Add(trace.Span{
				Name:  kind,
				Cat:   "net",
				Proc:  ti.proc,
				Lane:  from + "→" + ep.name,
				Start: startN,
				End:   startN + (readyN - nowN),
			})
		}
	}

	sh := ep.sh
	sh.stats.sent.Add(1)
	if lost {
		// Lossy link: the message vanishes in flight. The sender sees a
		// successful send, as it would on a real network.
		sh.stats.dropped.Add(1)
		sh.stats.lost.Add(1)
		return nil
	}
	if ep.pending.Add(1) > endpointQueueDepth {
		ep.pending.Add(-1)
		sh.stats.dropped.Add(1)
		return fmt.Errorf("network: endpoint %q queue full", ep.name)
	}
	it := itemPool.Get().(*item)
	it.msg = Message{From: from, To: ep.name, Kind: kind, Payload: payload, SentAt: now}
	it.ep = ep
	it.readyNanos = readyN
	sh.enqueue(it, nowN)
	return nil
}

// Broadcast sends to every registered endpoint except the sender, returning
// the number of successful sends. The topology, cut-link, and degradation
// state are snapshotted once; the fan-out re-acquires no locks per target
// and walks endpoints in sorted-name order.
func (t *Transport) Broadcast(from, kind string, payload any) int {
	st := t.state.Load()
	if st.stopped {
		return 0
	}
	now := t.clk.Now()
	n := 0
	for _, ep := range st.list {
		if ep.name == from || st.cut[linkKey{from, ep.name}] {
			continue
		}
		if t.sendTo(st, from, ep, kind, payload, now) == nil {
			n++
		}
	}
	return n
}

// mutate clones the current snapshot, applies fn, and publishes the result.
// It is a no-op on a stopped transport.
func (t *Transport) mutate(fn func(ns *fabricState)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state.Load()
	if st.stopped {
		return
	}
	ns := st.clone()
	ns.list = st.list // endpoint set unchanged by fault mutations
	fn(ns)
	t.state.Store(ns)
}

// CutLink partitions the directed link src→dst. Subsequent sends fail.
func (t *Transport) CutLink(src, dst string) {
	t.mutate(func(ns *fabricState) { ns.cut[linkKey{src, dst}] = true })
}

// HealLink restores a previously cut link.
func (t *Transport) HealLink(src, dst string) {
	t.mutate(func(ns *fabricState) { delete(ns.cut, linkKey{src, dst}) })
}

// Isolate cuts every link to and from the named endpoint.
func (t *Transport) Isolate(name string) {
	t.mutate(func(ns *fabricState) {
		for other := range ns.endpoints {
			if other == name {
				continue
			}
			ns.cut[linkKey{name, other}] = true
			ns.cut[linkKey{other, name}] = true
		}
	})
}

// HealAll undoes every CutLink and Isolate in one step and clears all link
// degradations, restoring the pristine fabric. It is the wholesale
// counterpart of HealLink: Isolate cuts 2(n-1) directed links at once and
// previously had no inverse.
func (t *Transport) HealAll() {
	t.mutate(func(ns *fabricState) {
		ns.cut = make(map[linkKey]bool)
		ns.degraded = make(map[linkKey]Degradation)
	})
}

// DegradeLink makes the directed link src→dst slow and lossy: subsequent
// messages gain extra one-way delay and are lost with probability loss
// (clamped to [0, 1]). A zero Degradation restores the link; HealAll clears
// every degradation.
func (t *Transport) DegradeLink(src, dst string, extra time.Duration, loss float64) {
	if loss < 0 {
		loss = 0
	}
	if loss > 1 {
		loss = 1
	}
	t.mutate(func(ns *fabricState) {
		if extra <= 0 && loss == 0 {
			delete(ns.degraded, linkKey{src, dst})
			return
		}
		ns.degraded[linkKey{src, dst}] = Degradation{Extra: extra, Loss: loss}
	})
}

// CutCount reports how many directed links are currently cut.
func (t *Transport) CutCount() int { return len(t.state.Load().cut) }

// DegradedCount reports how many directed links carry a degradation.
func (t *Transport) DegradedCount() int { return len(t.state.Load().degraded) }

// LostCount reports messages lost to link degradation (a subset of the
// dropped counter in Stats).
func (t *Transport) LostCount() uint64 {
	var lost uint64
	for _, sh := range t.shards {
		lost += sh.stats.lost.Load()
	}
	return lost
}

// Stats reports send/delivery counters summed across the shards.
func (t *Transport) Stats() (sent, delivered, dropped uint64) {
	for _, sh := range t.shards {
		sent += sh.stats.sent.Load()
		delivered += sh.stats.delivered.Load()
		dropped += sh.stats.dropped.Load()
	}
	return sent, delivered, dropped
}

// Stop shuts down the delivery workers and waits for them to exit; h is
// the caller's clock handle. Queued messages are dropped (uncounted),
// matching a fabric torn down mid-flight.
func (t *Transport) Stop(h clock.Handle) {
	t.mu.Lock()
	st := t.state.Load()
	if st.stopped {
		t.mu.Unlock()
		return
	}
	for _, ep := range st.endpoints {
		ep.closed.Store(true)
	}
	t.state.Store(&fabricState{
		stopped:   true,
		endpoints: make(map[string]*endpoint),
		cut:       make(map[linkKey]bool),
		degraded:  make(map[linkKey]Degradation),
	})
	t.mu.Unlock()
	t.stop.Close()
	t.wg.Wait(h)
}
