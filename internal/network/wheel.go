package network

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
)

// The delivery scheduler is a sharded hashed timing wheel (calendar queue).
// Every endpoint is pinned to one shard by a hash of its name; a shard owns
// a wheel of wheelSlots buckets of wheelGranularity each, an overflow heap
// for messages scheduled beyond the wheel horizon, a "ready" list for
// messages due at enqueue time, and exactly one delivery worker goroutine.
//
// Invariants the scheduler maintains:
//
//   - Wheel-resident items always have ticks in [cursor, cursor+wheelSlots),
//     so each bucket holds items of exactly one tick and buckets scanned in
//     tick order yield items in non-decreasing due time.
//   - A shard's worker delivers each wake-up's due batch sorted by
//     (readyNanos, seq), where seq is assigned under the shard lock at
//     enqueue. Together with the per-link ready-time clamp in sendTo this
//     preserves the per-directed-link FIFO contract.
//   - wakeAt (guarded by the shard lock) is the worker's next wake time:
//     math.MinInt64 while it is actively draining (no notify needed),
//     math.MaxInt64 while it is idle (any enqueue must notify), otherwise
//     the armed timer's deadline (earlier enqueues must notify).
const (
	// wheelGranularity is one wheel tick. Messages are never delivered
	// early: an armed timer targets the exact earliest readyNanos, the tick
	// only buckets messages.
	wheelGranularity = 100 * time.Microsecond
	granNanos        = int64(wheelGranularity)
	// wheelSlots is the bucket count; granularity*slots ≈ 410ms of horizon.
	// Delays beyond the horizon go to the shard's overflow heap.
	wheelSlots = 4096
	wheelMask  = wheelSlots - 1
)

// item is one scheduled delivery. Items are pooled: the worker clears and
// recycles them after invoking the handler, so steady-state sends do not
// allocate.
type item struct {
	msg        Message
	ep         *endpoint
	readyNanos int64
	seq        uint64
	tick       int64
}

var itemPool = sync.Pool{New: func() any { return new(item) }}

// shardStats are the per-shard counters; padding keeps each shard's hot
// counters on their own cache line so senders of different shards never
// false-share.
type shardStats struct {
	sent      atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
	lost      atomic.Uint64
	_         [4]uint64
}

type shard struct {
	stats shardStats

	mu     sync.Mutex
	seq    uint64
	ready  []*item   // due at enqueue time, drained ahead of the wheel
	slots  [][]*item // the hashed wheel
	cursor int64     // next tick to inspect
	far    farHeap   // beyond-horizon overflow
	wheelN int       // items resident in slots
	wakeAt int64     // see invariant above
	notify *clock.Mailbox[struct{}]
}

func newShard(clk clock.Clock) *shard {
	return &shard{
		slots:  make([][]*item, wheelSlots),
		wakeAt: math.MinInt64,
		notify: clock.NewMailbox[struct{}](clk, 1),
	}
}

// enqueue schedules one item and wakes the worker if it would otherwise
// sleep past the item's due time.
func (sh *shard) enqueue(it *item, nowN int64) {
	sh.mu.Lock()
	sh.seq++
	it.seq = sh.seq
	if it.readyNanos <= nowN {
		sh.ready = append(sh.ready, it)
	} else {
		tick := it.readyNanos / granNanos
		if tick < sh.cursor {
			// The sender's now-read went stale and the worker's cursor
			// already passed this tick; park the item in the cursor bucket
			// (the next one scanned) instead of a bucket that would not be
			// visited again for a full rotation.
			tick = sh.cursor
		}
		it.tick = tick
		if tick >= sh.cursor+wheelSlots {
			heap.Push(&sh.far, it)
		} else {
			idx := int(tick & wheelMask)
			sh.slots[idx] = append(sh.slots[idx], it)
			sh.wheelN++
		}
	}
	needWake := it.readyNanos < sh.wakeAt
	sh.mu.Unlock()
	if needWake {
		sh.notify.TrySend(struct{}{})
	}
}

// collect appends every item due at nowN to batch and returns it together
// with the earliest pending due time (math.MaxInt64 when the shard is
// drained). It updates wakeAt under the shard lock so enqueue's wake
// decision can never race the worker's sleep decision.
func (sh *shard) collect(nowN int64, batch []*item) ([]*item, int64) {
	sh.mu.Lock()
	nowTick := nowN / granNanos
	batch = append(batch, sh.ready...)
	for i := range sh.ready {
		sh.ready[i] = nil
	}
	sh.ready = sh.ready[:0]

	if sh.wheelN > 0 {
		from := sh.cursor
		if nowTick-from >= wheelSlots {
			// The worker slept longer than a full rotation: one pass over
			// [nowTick-wheelSlots+1, nowTick] visits every bucket once.
			from = nowTick - wheelSlots + 1
		}
		for tk := from; tk <= nowTick && sh.wheelN > 0; tk++ {
			idx := int(tk & wheelMask)
			slot := sh.slots[idx]
			if len(slot) == 0 {
				continue
			}
			kept := slot[:0]
			for _, it := range slot {
				if it.readyNanos <= nowN {
					batch = append(batch, it)
					sh.wheelN--
				} else {
					kept = append(kept, it)
				}
			}
			for i := len(kept); i < len(slot); i++ {
				slot[i] = nil
			}
			sh.slots[idx] = kept
		}
	}
	sh.cursor = nowTick

	for len(sh.far) > 0 && sh.far[0].readyNanos <= nowN {
		batch = append(batch, heap.Pop(&sh.far).(*item))
	}

	next := int64(math.MaxInt64)
	if len(batch) > 0 {
		sh.wakeAt = math.MinInt64
	} else {
		if len(sh.far) > 0 {
			next = sh.far[0].readyNanos
		}
		if sh.wheelN > 0 {
			// The first occupied bucket from the cursor holds the earliest
			// wheel items (buckets are single-tick; see invariant).
			for off := int64(0); off < wheelSlots; off++ {
				slot := sh.slots[int((nowTick+off)&wheelMask)]
				if len(slot) == 0 {
					continue
				}
				for _, it := range slot {
					if it.readyNanos < next {
						next = it.readyNanos
					}
				}
				break
			}
		}
		sh.wakeAt = next
	}
	sh.mu.Unlock()
	return batch, next
}

// worker is a shard's delivery loop: collect due items, deliver them in
// timestamp order, sleep until the next due time or an earlier enqueue.
func (t *Transport) worker(i int, sh *shard) {
	h := clock.RegisterForked(t.clk, "net/shard-"+strconv.Itoa(i))
	defer h.Close()
	defer t.wg.Done()
	var batch []*item
	for {
		nowN := t.nowNanos()
		var next int64
		batch, next = sh.collect(nowN, batch[:0])
		if len(batch) > 0 {
			t.deliverBatch(h, sh, batch)
			continue
		}
		if next == math.MaxInt64 {
			if idx, _, _ := h.Await(t.stop, sh.notify); idx == 0 {
				return
			}
			continue
		}
		// Arm an absolute deadline: a relative NewTimer could oversleep if
		// a virtual-clock Advance landed between reading nowN and arming
		// (the duration would be re-based on the advanced clock).
		// NewTimerAt fires immediately when the deadline already passed.
		timer := t.clk.NewTimerAt(t.t0.Add(time.Duration(next)))
		idx, _, _ := h.Await(t.stop, sh.notify, timer)
		if idx != 2 {
			timer.Stop()
		}
		if idx == 0 {
			return
		}
	}
}

// deliverBatch hands a due batch to the endpoint handlers in (readyNanos,
// seq) order, on the worker's handle h, and recycles the items.
func (t *Transport) deliverBatch(h clock.Handle, sh *shard, batch []*item) {
	slices.SortFunc(batch, func(a, b *item) int {
		if a.readyNanos != b.readyNanos {
			if a.readyNanos < b.readyNanos {
				return -1
			}
			return 1
		}
		if a.seq < b.seq {
			return -1
		}
		return 1
	})
	for _, it := range batch {
		ep := it.ep
		ep.pending.Add(-1)
		if !ep.closed.Load() {
			if fn := ep.handler.Load(); fn != nil {
				(*fn)(h, it.msg)
			}
			sh.stats.delivered.Add(1)
		}
		*it = item{}
		itemPool.Put(it)
	}
}

// farHeap is the beyond-horizon overflow, ordered by (readyNanos, seq).
type farHeap []*item

func (h farHeap) Len() int { return len(h) }
func (h farHeap) Less(i, j int) bool {
	if h[i].readyNanos != h[j].readyNanos {
		return h[i].readyNanos < h[j].readyNanos
	}
	return h[i].seq < h[j].seq
}
func (h farHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *farHeap) Push(x any)   { *h = append(*h, x.(*item)) }
func (h *farHeap) Pop() any {
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

// FNV-1a, shared by shard pinning and link seeding so the two hash paths
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
