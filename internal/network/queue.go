package network

import (
	"container/heap"
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
)

// item is one scheduled delivery. Items are pooled: the worker clears and
// recycles them after invoking the handler, so steady-state sends do not
// allocate.
type item struct {
	msg        Message
	ep         *endpoint
	readyNanos int64
	seq        uint64
}

var itemPool = sync.Pool{New: func() any { return new(item) }}

// queue is the transport's delivery schedule: one min-heap of scheduled
// messages ordered by (readyNanos, seq), guarded by one mutex and drained
// by one delivery actor, "net/deliver". seq is assigned under the mutex at
// enqueue, so messages due at the same instant leave in enqueue order.
//
// Invariants the scheduler maintains:
//
//   - The worker pops only items whose readyNanos is at or before its own
//     clock reading, always from the heap's head. Together with the
//     per-link ready-time clamp in sendTo this preserves the
//     per-directed-link FIFO contract even when a sender's clock reads
//     later than the worker's (the real clock): a later message on a link
//     is never due before an earlier one, so it can never leave first.
//   - wakeAt (guarded by the mutex) is the worker's next wake time:
//     math.MinInt64 while it is actively draining (no notify needed),
//     math.MaxInt64 while it is idle (any enqueue must notify), otherwise
//     the armed timer's deadline (earlier enqueues must notify).
type queue struct {
	mu     sync.Mutex
	seq    uint64
	items  itemHeap
	wakeAt int64 // see invariant above
	notify *clock.Mailbox[struct{}]
}

func newQueue(clk clock.Clock) *queue {
	return &queue{
		wakeAt: math.MinInt64,
		notify: clock.NewMailbox[struct{}](clk, 1),
	}
}

// enqueue schedules one item and wakes the worker if it would otherwise
// sleep past the item's due time.
func (q *queue) enqueue(it *item) {
	q.mu.Lock()
	q.seq++
	it.seq = q.seq
	heap.Push(&q.items, it)
	needWake := it.readyNanos < q.wakeAt
	q.mu.Unlock()
	if needWake {
		q.notify.TrySend(struct{}{})
	}
}

// collect appends every item due at nowN to batch, in (readyNanos, seq)
// order, and returns it together with the earliest pending due time
// (math.MaxInt64 when the queue is drained). It updates wakeAt under the
// mutex so enqueue's wake decision can never race the worker's sleep
// decision.
func (q *queue) collect(nowN int64, batch []*item) ([]*item, int64) {
	q.mu.Lock()
	for len(q.items) > 0 && q.items[0].readyNanos <= nowN {
		batch = append(batch, heap.Pop(&q.items).(*item))
	}
	next := int64(math.MaxInt64)
	if len(batch) > 0 {
		q.wakeAt = math.MinInt64
	} else {
		if len(q.items) > 0 {
			next = q.items[0].readyNanos
		}
		q.wakeAt = next
	}
	q.mu.Unlock()
	return batch, next
}

// worker is the delivery loop: collect due items, deliver them in
// timestamp order, sleep until the next due time or an earlier enqueue.
func (t *Transport) worker() {
	h := clock.RegisterForked(t.clk, "net/deliver")
	defer h.Close()
	defer t.wg.Done()
	var batch []*item
	for {
		var next int64
		batch, next = t.q.collect(t.nowNanos(), batch[:0])
		if len(batch) > 0 {
			t.deliverBatch(h, batch)
			continue
		}
		if next == math.MaxInt64 {
			if idx, _, _ := h.Await(t.stop, t.q.notify); idx == 0 {
				return
			}
			continue
		}
		// Arm an absolute deadline: a relative NewTimer could oversleep if
		// a virtual-clock Advance landed between reading the clock and
		// arming (the duration would be re-based on the advanced clock).
		// NewTimerAt fires immediately when the deadline already passed.
		timer := t.clk.NewTimerAt(t.t0.Add(time.Duration(next)))
		idx, _, _ := h.Await(t.stop, t.q.notify, timer)
		if idx != 2 {
			timer.Stop()
		}
		if idx == 0 {
			return
		}
	}
}

// deliverBatch hands a due batch, already in (readyNanos, seq) order, to
// the endpoint handlers on the worker's handle h, and recycles the items.
func (t *Transport) deliverBatch(h clock.Handle, batch []*item) {
	for _, it := range batch {
		ep := it.ep
		ep.pending.Add(-1)
		if !ep.closed.Load() {
			if fn := ep.handler.Load(); fn != nil {
				(*fn)(h, it.msg)
			}
			t.delivered.Add(1)
		}
		*it = item{}
		itemPool.Put(it)
	}
}

// itemHeap is the schedule's min-heap, ordered by (readyNanos, seq).
type itemHeap []*item

func (h itemHeap) Len() int { return len(h) }
func (h itemHeap) Less(i, j int) bool {
	if h[i].readyNanos != h[j].readyNanos {
		return h[i].readyNanos < h[j].readyNanos
	}
	return h[i].seq < h[j].seq
}
func (h itemHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *itemHeap) Push(x any)   { *h = append(*h, x.(*item)) }
func (h *itemHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// linkState is the per-directed-link scheduling state: the FIFO ready-time
// clamp and the link's own deterministic loss RNG. Links are created lazily
// and keyed in the transport's sync.Map, so senders on different links
// never contend.
type linkState struct {
	mu        sync.Mutex
	lastReady int64
	rng       *rand.Rand
	// hops numbers the link's messages for deterministic trace sampling;
	// it only advances while a tracer is attached.
	hops uint64
}

// FNV-1a, shared by link seeding and trace sampling so the two hash paths
// cannot drift apart.
const (
	fnvOffset64 = uint64(14695981039346656037)
	fnvPrime64  = uint64(1099511628211)
)

// fnvAdd folds a string into a running FNV-1a state.
func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// linkSeed derives a stable per-link RNG seed from the base seed and the
// directed link's names, keeping loss draws deterministic per link no
// matter how sends on other links interleave.
func linkSeed(base int64, from, to string) int64 {
	h := fnvAdd(fnvOffset64, from)
	h ^= 0xff // separator so ("ab","c") and ("a","bc") differ
	h *= fnvPrime64
	h = fnvAdd(h, to)
	return base ^ int64(h)
}
