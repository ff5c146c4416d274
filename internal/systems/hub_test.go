package systems

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/crypto"
)

func TestHubFiresOnlyWhenAllNodesCommit(t *testing.T) {
	h := NewHub(3)
	var mu sync.Mutex
	var got []Event
	h.Subscribe("client-1", func(e Event) {
		mu.Lock()
		got = append(got, e)
		mu.Unlock()
	})
	ev := Event{TxID: crypto.SumString("tx"), Client: "client-1", Committed: true, ValidOK: true}

	h.NodeCommitted("n0", ev, time.Unix(1, 0))
	h.NodeCommitted("n1", ev, time.Unix(2, 0))
	mu.Lock()
	if len(got) != 0 {
		t.Fatal("event fired before all nodes committed")
	}
	mu.Unlock()
	if h.PendingCount() != 1 {
		t.Fatalf("pending = %d, want 1", h.PendingCount())
	}

	h.NodeCommitted("n2", ev, time.Unix(3, 0))
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("events = %d, want 1", len(got))
	}
	if !got[0].FinalizedAt.Equal(time.Unix(3, 0)) {
		t.Fatalf("FinalizedAt = %v, want the last node's time", got[0].FinalizedAt)
	}
	if h.PendingCount() != 0 || h.EmittedCount() != 1 {
		t.Fatal("hub bookkeeping wrong after emit")
	}
}

func TestHubIgnoresDuplicateNodeReports(t *testing.T) {
	h := NewHub(2)
	fired := 0
	h.Subscribe("c", func(Event) { fired++ })
	ev := Event{TxID: crypto.SumString("tx"), Client: "c"}
	h.NodeCommitted("n0", ev, time.Now())
	h.NodeCommitted("n0", ev, time.Now()) // duplicate
	if fired != 0 {
		t.Fatal("duplicate node report completed the transaction")
	}
	h.NodeCommitted("n1", ev, time.Now())
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	// Late replays after emission must not re-fire.
	h.NodeCommitted("n0", ev, time.Now())
	if fired != 1 {
		t.Fatal("event re-fired after emission")
	}
}

func TestHubRoutesByClient(t *testing.T) {
	h := NewHub(1)
	var aEvents, bEvents int
	h.Subscribe("a", func(Event) { aEvents++ })
	h.Subscribe("b", func(Event) { bEvents++ })
	h.NodeCommitted("n0", Event{TxID: crypto.SumString("t1"), Client: "a"}, time.Now())
	h.NodeCommitted("n0", Event{TxID: crypto.SumString("t2"), Client: "b"}, time.Now())
	h.NodeCommitted("n0", Event{TxID: crypto.SumString("t3"), Client: "b"}, time.Now())
	if aEvents != 1 || bEvents != 2 {
		t.Fatalf("routing wrong: a=%d b=%d", aEvents, bEvents)
	}
}

func TestHubUnsubscribedClientDropsSilently(t *testing.T) {
	h := NewHub(1)
	// Must not panic.
	h.NodeCommitted("n0", Event{TxID: crypto.SumString("t"), Client: "nobody"}, time.Now())
	if h.EmittedCount() != 1 {
		t.Fatal("event not recorded as emitted")
	}
}

func TestHubEmitDirect(t *testing.T) {
	h := NewHub(4)
	var got []Event
	h.Subscribe("c", func(e Event) { got = append(got, e) })
	h.EmitDirect(Event{TxID: crypto.SumString("rejected"), Client: "c", Committed: false, Reason: "queue full"}, time.Unix(9, 0))
	if len(got) != 1 || got[0].Committed || got[0].Reason != "queue full" {
		t.Fatalf("got = %+v", got)
	}
	if !got[0].FinalizedAt.Equal(time.Unix(9, 0)) {
		t.Fatal("EmitDirect must stamp FinalizedAt")
	}
}

// TestHubManyTransactionsConcurrentExactlyOnce hammers the hub
// with interleaved commits for many transactions from many goroutines and
// checks every transaction emits exactly once (run under -race).
func TestHubManyTransactionsConcurrentExactlyOnce(t *testing.T) {
	const (
		nodes = 5
		txs   = 400
	)
	h := NewHub(nodes)
	var mu sync.Mutex
	fired := make(map[crypto.Hash]int, txs)
	h.Subscribe("c", func(e Event) {
		mu.Lock()
		fired[e.TxID]++
		mu.Unlock()
	})

	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		node := h.Node(string(rune('a' + n)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < txs; i++ {
				ev := Event{TxID: crypto.SumString("tx-" + string(rune(i))), Client: "c"}
				node.Committed(ev, time.Unix(int64(i), 0))
				// Duplicate report from the same node must be idempotent.
				node.Committed(ev, time.Unix(int64(i), 1))
			}
		}()
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for id, n := range fired {
		if n != 1 {
			t.Fatalf("tx %s fired %d times, want exactly 1", id.Short(), n)
		}
	}
	if h.PendingCount() != 0 {
		t.Fatalf("pending = %d after all nodes committed everything", h.PendingCount())
	}
	if got := h.EmittedCount(); got != len(fired) {
		t.Fatalf("EmittedCount = %d, fired = %d", got, len(fired))
	}
}

// TestHubTombstoneRetentionBounded checks the fix for the seed's unbounded
// emitted-map growth: tombstones are pruned FIFO, so memory stays constant
// while the lifetime emitted counter keeps increasing.
func TestHubTombstoneRetentionBounded(t *testing.T) {
	const retention = 8
	h := NewHub(1)
	h.retention = retention
	for i := 0; i < 100; i++ {
		ev := Event{TxID: crypto.SumString(fmt.Sprintf("tx-%d", i)), Client: "c"}
		h.NodeCommitted("n0", ev, time.Unix(int64(i), 0))
	}
	if got := h.EmittedCount(); got != 100 {
		t.Fatalf("EmittedCount = %d, want 100", got)
	}
	if got := h.TombstoneCount(); got != retention {
		t.Fatalf("TombstoneCount = %d, want retention cap %d", got, retention)
	}
	// A late replay of a recently emitted transaction must still be
	// suppressed.
	last := Event{TxID: crypto.SumString("tx-99"), Client: "c"}
	before := h.EmittedCount()
	h.NodeCommitted("n0", last, time.Unix(1000, 0))
	if h.EmittedCount() != before {
		t.Fatal("tombstoned transaction re-emitted")
	}
}

// TestHubNodeHandleInterning checks handles are stable per identity and
// usable interchangeably with the string API.
func TestHubNodeHandleInterning(t *testing.T) {
	h := NewHub(2)
	a1, a2 := h.Node("a"), h.Node("a")
	if a1 != a2 {
		t.Fatal("same identity interned twice")
	}
	if a1.ID() != "a" {
		t.Fatalf("handle ID = %q", a1.ID())
	}
	fired := 0
	h.Subscribe("c", func(Event) { fired++ })
	ev := Event{TxID: crypto.SumString("tx"), Client: "c"}
	a1.Committed(ev, time.Unix(1, 0))
	h.NodeCommitted("a", ev, time.Unix(2, 0)) // duplicate via string API
	if fired != 0 {
		t.Fatal("duplicate node report (handle + string) fired the event")
	}
	h.Node("b").Committed(ev, time.Unix(3, 0))
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestHubConcurrentCommitsFireExactlyOnce(t *testing.T) {
	h := NewHub(8)
	var mu sync.Mutex
	fired := 0
	h.Subscribe("c", func(Event) {
		mu.Lock()
		fired++
		mu.Unlock()
	})
	ev := Event{TxID: crypto.SumString("tx"), Client: "c"}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		node := string(rune('a' + i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.NodeCommitted(node, ev, time.Now())
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if fired != 1 {
		t.Fatalf("fired = %d, want exactly 1", fired)
	}
}
