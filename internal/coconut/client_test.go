package coconut

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/systems"
)

// fakeDriver is a scriptable systems.Driver for client unit tests. It
// mimics the hub's fault semantics: while any node is crashed, confirmed
// submissions buffer and flush when the node restarts ("persisted on all
// nodes" stalls during an outage and catches up after recovery).
type fakeDriver struct {
	mu        sync.Mutex
	subs      map[string]systems.EventFunc
	submitted []*chain.Transaction
	batches   []*chain.Batch
	down      map[int]bool
	deferred  []systems.Event
	// confirm controls whether a submission is confirmed immediately.
	confirm func(tx *chain.Transaction) bool
}

var (
	_ systems.Driver = (*fakeDriver)(nil)
	_ BatchSubmitter = (*fakeDriver)(nil)
)

func newFakeDriver() *fakeDriver {
	return &fakeDriver{
		subs:    make(map[string]systems.EventFunc),
		confirm: func(*chain.Transaction) bool { return true },
	}
}

func (f *fakeDriver) Name() string      { return "fake" }
func (f *fakeDriver) Start() error      { return nil }
func (f *fakeDriver) Stop(clock.Handle) {}
func (f *fakeDriver) NodeCount() int    { return 4 }

func (f *fakeDriver) Subscribe(client string, fn systems.EventFunc) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.subs[client] = fn
}

func (f *fakeDriver) Submit(entry int, tx *chain.Transaction) error {
	f.mu.Lock()
	if f.down[entry%f.NodeCount()] {
		f.mu.Unlock()
		return systems.ErrNodeDown
	}
	f.submitted = append(f.submitted, tx)
	fn := f.subs[tx.Client]
	ok := f.confirm(tx)
	ev := systems.Event{
		TxID:      tx.ID,
		Client:    tx.Client,
		Committed: true,
		ValidOK:   true,
		OpCount:   tx.OpCount(),
	}
	if ok && len(f.down) > 0 {
		// Some node is down: the tx commits on the survivors but the
		// end-to-end event waits for the crashed node's restart.
		f.deferred = append(f.deferred, ev)
		f.mu.Unlock()
		return nil
	}
	f.mu.Unlock()
	if ok && fn != nil {
		fn(ev)
	}
	return nil
}

func (f *fakeDriver) CrashNode(node int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down == nil {
		f.down = make(map[int]bool)
	}
	f.down[node%f.NodeCount()] = true
	return nil
}

func (f *fakeDriver) RestartNode(_ clock.Handle, node int) error {
	f.mu.Lock()
	delete(f.down, node%f.NodeCount())
	var flush []systems.Event
	if len(f.down) == 0 {
		flush = f.deferred
		f.deferred = nil
	}
	subs := f.subs
	f.mu.Unlock()
	for _, ev := range flush {
		if fn := subs[ev.Client]; fn != nil {
			fn(ev)
		}
	}
	return nil
}

func (f *fakeDriver) SubmitBatch(entry int, b *chain.Batch) error {
	f.mu.Lock()
	f.batches = append(f.batches, b)
	f.mu.Unlock()
	for _, tx := range b.Txs {
		if err := f.Submit(entry, tx); err != nil {
			return err
		}
	}
	return nil
}

func (f *fakeDriver) submittedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.submitted)
}

func TestClientSendsAndCollects(t *testing.T) {
	d := newFakeDriver()
	c := NewClient(ClientConfig{
		ID:              "c0",
		Driver:          d,
		Benchmark:       BenchDoNothing,
		RateLimit:       500,
		WorkloadThreads: 2,
		SendDuration:    200 * time.Millisecond,
		ListenGrace:     50 * time.Millisecond,
	})
	records := c.Run(clock.Register(c.cfg.Clock, "test"))
	if len(records) == 0 {
		t.Fatal("no transactions sent")
	}
	for _, r := range records {
		if !r.Received {
			t.Fatal("immediately-confirmed tx not recorded as received")
		}
		if r.End.Before(r.Start) {
			t.Fatal("endtime before starttime")
		}
	}
}

func TestClientRateLimit(t *testing.T) {
	d := newFakeDriver()
	c := NewClient(ClientConfig{
		ID:              "c0",
		Driver:          d,
		Benchmark:       BenchDoNothing,
		RateLimit:       100, // 100 payloads/s over 300ms → ~30 expected
		WorkloadThreads: 4,
		SendDuration:    300 * time.Millisecond,
		ListenGrace:     20 * time.Millisecond,
	})
	records := c.Run(clock.Register(c.cfg.Clock, "test"))
	// Warm-start token plus pacing: allow generous headroom but catch a
	// broken limiter (which would send thousands).
	if len(records) > 60 {
		t.Fatalf("sent %d transactions in 300ms at RL=100 (limiter broken)", len(records))
	}
	if len(records) < 10 {
		t.Fatalf("sent only %d transactions (pacer stalled)", len(records))
	}
}

func TestClientLostTransactionsStayUnreceived(t *testing.T) {
	d := newFakeDriver()
	d.confirm = func(tx *chain.Transaction) bool {
		// Confirm every other transaction.
		return tx.Seq%2 == 0
	}
	c := NewClient(ClientConfig{
		ID:              "c0",
		Driver:          d,
		Benchmark:       BenchDoNothing,
		RateLimit:       1000,
		WorkloadThreads: 1,
		SendDuration:    100 * time.Millisecond,
		ListenGrace:     20 * time.Millisecond,
	})
	records := c.Run(clock.Register(c.cfg.Clock, "test"))
	lost := 0
	for _, r := range records {
		if !r.Received {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("expected unconfirmed transactions to stay unreceived")
	}
	res := ComputeRepetition(records)
	if res.ReceivedNoT >= res.ExpectedNoT {
		t.Fatal("lost transactions not reflected in NoT accounting")
	}
}

func TestClientOpsPerTx(t *testing.T) {
	d := newFakeDriver()
	c := NewClient(ClientConfig{
		ID:              "c0",
		Driver:          d,
		Benchmark:       BenchDoNothing,
		RateLimit:       1000,
		WorkloadThreads: 1,
		OpsPerTx:        50,
		SendDuration:    100 * time.Millisecond,
		ListenGrace:     20 * time.Millisecond,
	})
	records := c.Run(clock.Register(c.cfg.Clock, "test"))
	if len(records) == 0 {
		t.Fatal("nothing sent")
	}
	for _, r := range records {
		if r.Ops != 50 {
			t.Fatalf("record ops = %d, want 50", r.Ops)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, tx := range d.submitted {
		if tx.OpCount() != 50 {
			t.Fatalf("submitted tx has %d ops, want 50", tx.OpCount())
		}
	}
}

func TestClientBatchesUseBatchSubmitter(t *testing.T) {
	d := newFakeDriver()
	c := NewClient(ClientConfig{
		ID:              "c0",
		Driver:          d,
		Benchmark:       BenchDoNothing,
		RateLimit:       1000,
		WorkloadThreads: 1,
		BatchSize:       10,
		SendDuration:    100 * time.Millisecond,
		ListenGrace:     20 * time.Millisecond,
	})
	records := c.Run(clock.Register(c.cfg.Clock, "test"))
	d.mu.Lock()
	batches := len(d.batches)
	d.mu.Unlock()
	if batches == 0 {
		t.Fatal("no batches submitted despite BatchSize=10")
	}
	if len(records) != batches*10 {
		t.Fatalf("records = %d, want %d (10 per batch)", len(records), batches*10)
	}
}

func TestClientReadMaxWrapsIndices(t *testing.T) {
	d := newFakeDriver()
	c := NewClient(ClientConfig{
		ID:              "c0",
		Driver:          d,
		Benchmark:       BenchKeyValueGet,
		RateLimit:       2000,
		WorkloadThreads: 1,
		SendDuration:    100 * time.Millisecond,
		ListenGrace:     20 * time.Millisecond,
		ReadMax:         []uint64{3}, // only keys 0..2 were "written"
	})
	c.Run(clock.Register(c.cfg.Clock, "test"))
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.submitted) < 4 {
		t.Fatalf("need > 3 sends to observe wrapping, got %d", len(d.submitted))
	}
	for _, tx := range d.submitted {
		key := tx.Ops[0].Args[0]
		// Keys must come from the wrapped space kv/c0/0/{0,1,2}.
		if !strings.HasSuffix(key, "/0") && !strings.HasSuffix(key, "/1") && !strings.HasSuffix(key, "/2") {
			t.Fatalf("key %q outside ReadMax=3 space", key)
		}
	}
}

func TestClientSentCountsMatchRecords(t *testing.T) {
	d := newFakeDriver()
	c := NewClient(ClientConfig{
		ID:              "c0",
		Driver:          d,
		Benchmark:       BenchKeyValueSet,
		RateLimit:       500,
		WorkloadThreads: 3,
		SendDuration:    150 * time.Millisecond,
		ListenGrace:     20 * time.Millisecond,
	})
	records := c.Run(clock.Register(c.cfg.Clock, "test"))
	counts := c.SentCounts()
	if len(counts) != 3 {
		t.Fatalf("SentCounts len = %d, want 3", len(counts))
	}
	var total uint64
	for _, n := range counts {
		total += n
	}
	if int(total) != len(records) {
		t.Fatalf("SentCounts total = %d, records = %d", total, len(records))
	}
}

// TestClientSummaryMatchesRecords checks the online streamed summary agrees
// with the record-slice metrics path.
func TestClientSummaryMatchesRecords(t *testing.T) {
	d := newFakeDriver()
	d.confirm = func(tx *chain.Transaction) bool { return tx.Seq%3 != 0 }
	c := NewClient(ClientConfig{
		ID:              "c0",
		Driver:          d,
		Benchmark:       BenchKeyValueSet,
		RateLimit:       500,
		WorkloadThreads: 3,
		SendDuration:    200 * time.Millisecond,
		ListenGrace:     30 * time.Millisecond,
	})
	records := c.Run(clock.Register(c.cfg.Clock, "test"))
	want := ComputeRepetition(records)
	got := CombineSummaries([]ClientSummary{c.Summary()})
	if got.ExpectedNoT != want.ExpectedNoT || got.ReceivedNoT != want.ReceivedNoT {
		t.Fatalf("NoT: summary %d/%d, records %d/%d",
			got.ReceivedNoT, got.ExpectedNoT, want.ReceivedNoT, want.ExpectedNoT)
	}
	if want.FLS > 0 && (got.FLS <= 0 || got.FLS/want.FLS > 1.01 || want.FLS/got.FLS > 1.01) {
		t.Fatalf("FLS: summary %v, records %v", got.FLS, want.FLS)
	}
	if want.DurationSec > 0 && got.DurationSec <= 0 {
		t.Fatal("summary lost the duration window")
	}
}

// TestClientDiscardRecordsKeepsOnlineMetrics checks the bounded-memory mode:
// no records are returned, yet the streamed summary and per-thread counters
// still carry the full accounting.
func TestClientDiscardRecordsKeepsOnlineMetrics(t *testing.T) {
	d := newFakeDriver()
	c := NewClient(ClientConfig{
		ID:              "c0",
		Driver:          d,
		Benchmark:       BenchDoNothing,
		RateLimit:       500,
		WorkloadThreads: 2,
		SendDuration:    150 * time.Millisecond,
		ListenGrace:     20 * time.Millisecond,
		DiscardRecords:  true,
	})
	records := c.Run(clock.Register(c.cfg.Clock, "test"))
	if records != nil {
		t.Fatalf("DiscardRecords returned %d records, want nil", len(records))
	}
	sum := c.Summary()
	if sum.ExpectedNoT == 0 || sum.ReceivedNoT == 0 {
		t.Fatalf("summary empty: %+v", sum)
	}
	if sum.ReceivedNoT != sum.ExpectedNoT {
		t.Fatalf("fake driver confirms everything, yet %d/%d received",
			sum.ReceivedNoT, sum.ExpectedNoT)
	}
	if sum.Hist == nil || sum.Hist.Count() == 0 {
		t.Fatal("latency histogram not streamed")
	}
	var received uint64
	for _, n := range c.ReceivedCounts() {
		received += n
	}
	if int(received) != sum.ReceivedNoT {
		t.Fatalf("per-thread received = %d, summary = %d", received, sum.ReceivedNoT)
	}
	// The in-flight index must be empty after the phase: memory is bounded
	// by outstanding transactions, not run length.
	if n := len(c.inflight); n != 0 {
		t.Fatalf("in-flight index still holds %d records after detach", n)
	}
}

func TestClientIgnoresUnknownEvents(t *testing.T) {
	d := newFakeDriver()
	c := NewClient(ClientConfig{
		ID:              "c0",
		Driver:          d,
		Benchmark:       BenchDoNothing,
		RateLimit:       100,
		WorkloadThreads: 1,
		SendDuration:    50 * time.Millisecond,
		ListenGrace:     20 * time.Millisecond,
	})
	// Fire a stray event for a transaction this client never sent.
	ghost := chain.NewSingleOp("other", 99, "donothing", "DoNothing")
	d.mu.Lock()
	fn := d.subs["c0"]
	d.mu.Unlock()
	fn(systems.Event{TxID: ghost.ID, Client: "c0", Committed: true})
	records := c.Run(clock.Register(c.cfg.Clock, "test"))
	for _, r := range records {
		if r.Received && r.End.IsZero() {
			t.Fatal("corrupted record from stray event")
		}
	}
}
