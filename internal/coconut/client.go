package coconut

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/trace"
)

// BatchSubmitter is implemented by drivers that accept atomic batches
// (Sawtooth). The client uses it when BatchSize > 1.
type BatchSubmitter interface {
	SubmitBatch(entryNode int, b *chain.Batch) error
}

// ClientConfig parameterizes one COCONUT client application. The paper runs
// four client applications, each with four client threads of four workload
// threads (16 senders per application), each application targeting a
// different server (§4.3).
type ClientConfig struct {
	// ID is the client application's name; events route to it.
	ID string
	// Driver is the system under test.
	Driver systems.Driver
	// EntryNode is the node this client sends to.
	EntryNode int
	// Benchmark selects the workload.
	Benchmark BenchmarkName
	// Gen, when set, overrides the benchmark generator: it is called once
	// per workload thread and must return that thread's deterministic
	// operation generator. The contention workload plane
	// (internal/workload) plugs in here; nil keeps the paper's per-thread
	// partitioned benchmark generators.
	Gen func(thread int) OpGen
	// RateLimit is the maximum payloads per second this client sends — the
	// paper's RL parameter (§4.4).
	RateLimit int
	// Arrival shapes the inter-send gaps at the configured rate; nil means
	// the paper's uniform pacing.
	Arrival ArrivalSchedule
	// ArrivalSeed drives randomized schedules (Poisson) deterministically.
	ArrivalSeed int64
	// WorkloadThreads is the number of concurrent senders (paper: 16).
	WorkloadThreads int
	// OpsPerTx packs several operations into one transaction (BitShares:
	// 1, 50, 100). Default 1.
	OpsPerTx int
	// BatchSize groups transactions into an atomic batch (Sawtooth: 1, 50,
	// 100). Default 1. Requires the driver to implement BatchSubmitter
	// when > 1.
	BatchSize int
	// SendDuration is the transaction sending window (paper: 300s).
	SendDuration time.Duration
	// ListenGrace is the extra listening window for late confirmations
	// (paper: 30s).
	ListenGrace time.Duration
	// ReadMax, when non-zero, wraps generated indices so read benchmarks
	// target keys the preceding write phase actually sent (per thread).
	ReadMax []uint64
	// DiscardRecords drops each TxRecord as soon as it is finalized (or at
	// phase end if it never is), keeping client memory bounded by the
	// in-flight window instead of the whole run; metrics then come from
	// Summary's online counters and histogram, and Run returns nil.
	DiscardRecords bool
	// Timeline, when set, receives every send and confirmation into the
	// shared windowed measurement plane (fault runs derive availability
	// and recovery statistics from it).
	Timeline *Timeline
	// Trace, when set, receives one span per pipeline stage for sampled
	// transactions at confirmation time; unsampled transactions pay only
	// the hash-and-compare guard (zero allocations).
	Trace *trace.Tracer
	// Clock is the time source.
	Clock clock.Clock
}

func (c *ClientConfig) fill() {
	if c.RateLimit <= 0 {
		c.RateLimit = 50
	}
	if c.Arrival == nil {
		c.Arrival = UniformArrival{}
	}
	if c.WorkloadThreads <= 0 {
		c.WorkloadThreads = 16
	}
	if c.OpsPerTx <= 0 {
		c.OpsPerTx = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	if c.SendDuration <= 0 {
		c.SendDuration = 300 * time.Second
	}
	if c.ListenGrace <= 0 {
		c.ListenGrace = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = clock.New()
	}
}

// clientThread is the per-workload-thread state. The records buffer is
// owned by its sending goroutine (appends are lock-free) and only read
// after every sender has exited; the counters are updated atomically from
// event goroutines.
type clientThread struct {
	records  []*TxRecord
	sent     atomic.Uint64
	received atomic.Uint64
}

// Client is one COCONUT client application: it drives the workload threads,
// paces sends according to the arrival schedule, and streams finalization
// notifications into per-thread buffers and an online latency histogram.
type Client struct {
	cfg ClientConfig

	seq     atomic.Uint64
	closed  atomic.Bool
	threads []clientThread
	hist    *LatencyHist
	stages  StageMetrics

	// inflight indexes submitted, not yet finalized transactions by ID.
	inflightMu sync.Mutex
	inflight   map[crypto.Hash]*TxRecord

	// Online repetition summary, streamed as sends and events happen so
	// phase-end aggregation never walks the full record set.
	expectedOps  atomic.Int64
	receivedOps  atomic.Int64
	validOps     atomic.Int64
	latencySumNs atomic.Int64
	latencyN     atomic.Int64
	firstSendNs  atomic.Int64 // math.MaxInt64 until the first send
	lastRecvNs   atomic.Int64 // math.MinInt64 until the first receipt

	// Per-reason abort payload counts. Aborts are the exceptional path, so
	// a small mutex-guarded map beats widening the hot-path atomics.
	abortMu sync.Mutex
	aborts  map[string]int
}

// NewClient builds a client; Subscribe must happen before the system starts
// delivering events, so construction registers the event listener.
func NewClient(cfg ClientConfig) *Client {
	cfg.fill()
	c := &Client{
		cfg:      cfg,
		inflight: make(map[crypto.Hash]*TxRecord),
		threads:  make([]clientThread, cfg.WorkloadThreads),
		hist:     NewLatencyHist(),
	}
	c.firstSendNs.Store(math.MaxInt64)
	c.lastRecvNs.Store(math.MinInt64)
	cfg.Driver.Subscribe(cfg.ID, c.onEvent)
	return c
}

// onEvent records a finalization notification (the paper's T3) and streams
// it out of the in-flight index: the record's summary contribution is
// folded in immediately and the index entry is dropped, so the index size
// tracks outstanding transactions, not run length.
func (c *Client) onEvent(ev systems.Event) {
	if c.closed.Load() {
		return
	}
	now := c.cfg.Clock.Now()
	c.inflightMu.Lock()
	rec, ok := c.inflight[ev.TxID]
	if !ok {
		// Unknown or already-finalized transaction: drop.
		c.inflightMu.Unlock()
		return
	}
	delete(c.inflight, ev.TxID)
	rec.Received = true
	rec.ValidOK = ev.ValidOK
	rec.Code = ev.Code
	rec.End = now
	fls := rec.FLS()
	// The summary contribution is folded in before the index lock is
	// released: detach serializes on it, so once it completes no received
	// event can be missing from the online counters.
	c.receivedOps.Add(int64(rec.Ops))
	if ev.ValidOK {
		c.validOps.Add(int64(rec.Ops))
	} else {
		c.abortMu.Lock()
		if c.aborts == nil {
			c.aborts = make(map[string]int)
		}
		c.aborts[abortCode(ev.Code)] += rec.Ops
		c.abortMu.Unlock()
	}
	// Ops-weighted: §4.5 counts every payload as one transaction, so a
	// multi-op transaction's latency weighs once per operation — matching
	// ReceivedNoT and the timeline's accounting.
	c.latencySumNs.Add(int64(fls) * int64(rec.Ops))
	c.latencyN.Add(int64(rec.Ops))
	atomicMax(&c.lastRecvNs, now.UnixNano())
	c.hist.ObserveN(fls, uint64(rec.Ops))
	if rec.Thread >= 0 && rec.Thread < len(c.threads) {
		c.threads[rec.Thread].received.Add(uint64(rec.Ops))
	}
	ops := rec.Ops
	start := rec.Start
	c.inflightMu.Unlock()
	// Stage folding and the timeline update happen outside the index lock:
	// both are atomic-only and must not extend the critical section. The
	// confirmation instant closes the commit segment.
	if ev.Stages != nil {
		var buf [chain.NumStages]chain.StageSpan
		spans := ev.Stages.Durations(start, now, buf[:0])
		for _, sp := range spans {
			c.stages.Observe(sp.Stage, sp.Dur, ops)
		}
		// Sampled transactions additionally resolve into a contiguous span
		// chain on their own trace lane, end to end from send to confirm.
		if tr := c.cfg.Trace; tr.Sampled(trace.Key(ev.TxID)) {
			key := trace.Key(ev.TxID)
			lane := fmt.Sprintf("tx-%016x", key)
			cursor := start.UnixNano()
			for _, sp := range spans {
				spanEnd := cursor + int64(sp.Dur)
				tr.Add(trace.Span{Key: key, Name: sp.Stage.String(), Cat: "stage",
					Proc: c.cfg.Driver.Name(), Lane: lane, Start: cursor, End: spanEnd, Block: ev.BlockNum})
				cursor = spanEnd
			}
		}
	}
	if c.cfg.Timeline != nil {
		c.cfg.Timeline.RecordRecv(now, ops, fls, ev.ValidOK)
	}
}

// Run executes the send and listen phases on the caller's handle h,
// blocking until both complete, and returns every transaction record (nil
// when DiscardRecords is set).
func (c *Client) Run(h clock.Handle) []TxRecord {
	clk := c.cfg.Clock
	stopSend := clock.NewGate(clk)
	wg := clock.NewGroup(clk)

	// Shared pacer: each token permits sending one transaction or batch,
	// which accounts for OpsPerTx*BatchSize payloads against the rate
	// limit. The arrival schedule shapes the gap sequence; uniform gaps
	// reproduce the paper's rate limiter.
	payloadsPerSend := c.cfg.OpsPerTx * c.cfg.BatchSize
	interval := time.Duration(float64(time.Second) * float64(payloadsPerSend) / float64(c.cfg.RateLimit))
	if interval <= 0 {
		interval = time.Microsecond
	}
	gaps := c.cfg.Arrival.Gaps(interval, c.cfg.ArrivalSeed)
	tokens := clock.NewMailbox[struct{}](clk, 1)
	// Warm start: the first send happens immediately (the paper's threads
	// start sending at t=0), then the pacer enforces the schedule.
	tokens.TrySend(struct{}{})
	clock.Fork(clk, 1+c.cfg.WorkloadThreads)
	wg.Add(1)
	go func() {
		ph := clock.RegisterForked(clk, c.cfg.ID+"/pacer")
		defer ph.Close()
		defer wg.Done()
		for {
			if g := gaps(); g > 0 {
				t := clk.NewTimer(g)
				if i, _, _ := ph.Await(stopSend, t); i == 0 {
					t.Stop()
					return
				}
			} else if stopSend.Closed() {
				return
			}
			if !tokens.Send(ph, struct{}{}, stopSend) {
				return
			}
		}
	}()

	for t := 0; t < c.cfg.WorkloadThreads; t++ {
		t := t
		wg.Add(1)
		go func() {
			wh := clock.RegisterForked(clk, c.cfg.ID+"/w"+strconv.Itoa(t))
			defer wh.Close()
			defer wg.Done()
			c.workloadThread(wh, t, tokens, stopSend)
		}()
	}

	h.Sleep(c.cfg.SendDuration)
	stopSend.Close()
	wg.Wait(h)
	h.Sleep(c.cfg.ListenGrace)
	c.detach()

	if c.cfg.DiscardRecords {
		return nil
	}
	total := 0
	for i := range c.threads {
		total += len(c.threads[i].records)
	}
	out := make([]TxRecord, 0, total)
	for i := range c.threads {
		for _, rec := range c.threads[i].records {
			out = append(out, *rec)
		}
	}
	return out
}

// detach ends the listening phase: it closes the event path and clears the
// in-flight index under its lock, so no event goroutine can touch a record
// after this returns and the per-thread buffers can be read without
// synchronization.
func (c *Client) detach() {
	c.closed.Store(true)
	c.inflightMu.Lock()
	c.inflight = make(map[crypto.Hash]*TxRecord)
	c.inflightMu.Unlock()
}

// Summary returns the client's online phase aggregation; call after Run.
func (c *Client) Summary() ClientSummary {
	s := ClientSummary{
		ExpectedNoT: int(c.expectedOps.Load()),
		ReceivedNoT: int(c.receivedOps.Load()),
		ValidNoT:    int(c.validOps.Load()),
		LatencySum:  time.Duration(c.latencySumNs.Load()),
		LatencyN:    int(c.latencyN.Load()),
		Hist:        c.hist,
		Stages:      &c.stages,
	}
	c.abortMu.Lock()
	if len(c.aborts) > 0 {
		s.Aborts = make(map[string]int, len(c.aborts))
		for code, n := range c.aborts {
			s.Aborts[code] = n
		}
	}
	c.abortMu.Unlock()
	if first := c.firstSendNs.Load(); first != math.MaxInt64 {
		s.FirstSend = time.Unix(0, first)
	}
	if last := c.lastRecvNs.Load(); last != math.MinInt64 {
		s.LastRecv = time.Unix(0, last)
	}
	return s
}

// workloadThread sends transactions sequentially without waiting for
// finalization confirmations (§4.3); h is the thread's own handle.
func (c *Client) workloadThread(h clock.Handle, thread int, tokens *clock.Mailbox[struct{}], stop *clock.Gate) {
	threadKey := c.cfg.ID + "/" + strconv.Itoa(thread)
	var gen OpGen
	if c.cfg.Gen != nil {
		gen = c.cfg.Gen(thread)
	} else {
		gen = NewOpGen(c.cfg.Benchmark, threadKey)
	}
	var readMax uint64
	if thread < len(c.cfg.ReadMax) {
		readMax = c.cfg.ReadMax[thread]
	}
	// A read thread whose write-phase counterpart got nothing accepted has
	// no key space to read; it stays idle rather than querying keys that
	// were never written.
	if ReadBenchmarkDependsOnWrite(c.cfg.Benchmark) != "" && len(c.cfg.ReadMax) > 0 && readMax == 0 {
		return
	}
	var idx uint64

	for {
		// The stop gate sits at index 0, so when a token and the shutdown
		// signal are both ready the cutoff wins — every thread stops at the
		// same deterministic point under virtual time.
		if i, _, _ := h.Await(stop, tokens); i == 0 {
			return
		}

		if c.cfg.BatchSize > 1 {
			c.sendBatch(thread, gen, &idx, readMax)
		} else {
			c.sendTx(thread, gen, &idx, readMax)
		}
	}
}

// nextIndex produces the generator index, wrapping into the written key
// space for read benchmarks.
func nextIndex(idx *uint64, readMax uint64) uint64 {
	i := *idx
	*idx++
	if readMax > 0 {
		return i % readMax
	}
	return i
}

func (c *Client) sendTx(thread int, gen OpGen, idx *uint64, readMax uint64) {
	ops := make([]chain.Operation, c.cfg.OpsPerTx)
	for i := range ops {
		ops[i] = gen(nextIndex(idx, readMax))
	}
	tx := chain.NewTransaction(c.cfg.ID, c.seq.Add(1), ops...)

	start := c.cfg.Clock.Now()
	tx.SubmittedAt = start
	c.track(tx.ID, start, len(ops), thread)
	// A submission error is an admission rejection: the record stays
	// unreceived and counts as lost, matching the paper's accounting. The
	// consumed indices roll back so the written key space stays
	// contiguous — rejected writes never reached the chain, and the
	// paper's clients re-send into the same space.
	if err := c.cfg.Driver.Submit(c.cfg.EntryNode, tx); err != nil {
		*idx -= uint64(len(ops))
		return
	}
	c.threads[thread].sent.Add(uint64(len(ops)))
}

func (c *Client) sendBatch(thread int, gen OpGen, idx *uint64, readMax uint64) {
	bs, ok := c.cfg.Driver.(BatchSubmitter)
	txs := make([]*chain.Transaction, c.cfg.BatchSize)
	start := c.cfg.Clock.Now()
	for i := range txs {
		op := gen(nextIndex(idx, readMax))
		txs[i] = chain.NewSingleOp(c.cfg.ID, c.seq.Add(1), op.IEL, op.Function, op.Args...)
		txs[i].SubmittedAt = start
		c.track(txs[i].ID, start, 1, thread)
	}
	if ok {
		// On rejection (Sawtooth's full queue) the whole batch is lost and
		// its key range rolls back for reuse by the next batch.
		if err := bs.SubmitBatch(c.cfg.EntryNode, chain.NewBatch(txs...)); err != nil {
			*idx -= uint64(len(txs))
			return
		}
		c.threads[thread].sent.Add(uint64(len(txs)))
		return
	}
	// Driver without batch support: degrade to individual sends.
	for _, tx := range txs {
		if err := c.cfg.Driver.Submit(c.cfg.EntryNode, tx); err == nil {
			c.threads[thread].sent.Add(1)
		}
	}
}

// track registers a record in the in-flight index (and, unless records are
// discarded, the owning thread's buffer) before submission, so the
// finalization event can never outrun its record.
func (c *Client) track(id crypto.Hash, start time.Time, ops, thread int) {
	rec := &TxRecord{Start: start, Ops: ops, Thread: thread}
	c.inflightMu.Lock()
	c.inflight[id] = rec
	c.inflightMu.Unlock()
	if !c.cfg.DiscardRecords {
		c.threads[thread].records = append(c.threads[thread].records, rec)
	}
	c.expectedOps.Add(int64(ops))
	atomicMin(&c.firstSendNs, start.UnixNano())
	if c.cfg.Timeline != nil {
		c.cfg.Timeline.RecordSend(start, ops)
	}
}

// SentCounts returns the per-thread payload counts accepted so far.
func (c *Client) SentCounts() []uint64 {
	out := make([]uint64, len(c.threads))
	for i := range c.threads {
		out[i] = c.threads[i].sent.Load()
	}
	return out
}

// ReceivedCounts returns the per-thread payload counts that were confirmed
// end to end. Admission queues are FIFO, so the confirmed prefix of each
// thread's key space is contiguous — the runner feeds these counts into
// dependent read phases as ReadMax.
func (c *Client) ReceivedCounts() []uint64 {
	out := make([]uint64, len(c.threads))
	for i := range c.threads {
		out[i] = c.threads[i].received.Load()
	}
	return out
}

func atomicMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if cur <= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
