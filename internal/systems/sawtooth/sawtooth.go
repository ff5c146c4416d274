// Package sawtooth simulates Hyperledger Sawtooth 1.2.6 with the
// sawtooth-pbft consensus engine as benchmarked in the paper: transactions
// grouped into atomic batches, a bounded admission queue that rejects
// submissions under load, and block publishing governed by
// sawtooth.consensus.pbft.block_publishing_delay.
//
// Behaviours reproduced from the paper:
//   - "the management of a queue that rejects new incoming transactions if
//     the occupancy of the queue is too high. In this case, it is required
//     to re-send the rejected transaction or the atomic batch" (§5.6) — the
//     dominant source of Sawtooth's lost transactions. Submit returns
//     mempool.ErrQueueFull so COCONUT can count the loss.
//   - Atomic batches: "if a transaction fails within a batch, the entire
//     batch ... is completely discarded" (§5.6). Discarded batches produce
//     no client events at all.
//   - block_publishing_delay ∈ {1, 2, 5, 10}s paces block creation
//     (Table 6); adjusting it "does not reveal any significant difference".
package sawtooth

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/consensus/pbft"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/mempool"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/statestore"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/trace"
	"github.com/coconut-bench/coconut/internal/wal"
)

// Config parameterizes a Sawtooth network.
type Config struct {
	// Validators is the network size (paper: 4).
	Validators int
	// BlockPublishingDelay paces block creation (paper default 1s).
	BlockPublishingDelay time.Duration
	// QueueDepth bounds each validator's batch admission queue; overflow
	// rejects the batch back to the client.
	QueueDepth int
	// MaxBlockBatches caps batches per block.
	MaxBlockBatches int
	// PendingStallAtValidators, when positive, reproduces the paper's
	// §5.8.2 finding for large networks: with 16 and 32 validators "all
	// transactions remain in the pending state without being finalized".
	// At or above this validator count, the primary stops publishing
	// blocks. The upstream root cause is unknown; this models the
	// observation.
	PendingStallAtValidators int
	// Transport carries all messages; nil creates a private fabric.
	Transport *network.Transport
	// Clock drives timers.
	Clock clock.Clock
	// WAL, when set, mounts a write-ahead log on every validator's commit
	// gate (see systems.DurableGate).
	WAL *wal.Options
	// Trace, when set, receives sampled spans: consensus rounds, WAL
	// appends/fsyncs, and (on a private transport) network hops.
	Trace *trace.Tracer
}

func (c *Config) fill() {
	if c.Validators <= 0 {
		c.Validators = 4
	}
	if c.BlockPublishingDelay <= 0 {
		c.BlockPublishingDelay = time.Second
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBlockBatches <= 0 {
		c.MaxBlockBatches = 100
	}
	if c.Clock == nil {
		c.Clock = clock.New()
	}
}

// publishedBlock is the PBFT payload.
type publishedBlock struct {
	Batches     []*chain.Batch
	PublishedAt time.Time
	Publisher   string
}

// validator is one Sawtooth node.
type validator struct {
	systems.Node
	engine *pbft.Engine
	queue  *mempool.Pool[*chain.Batch]

	mu   sync.Mutex
	seen map[crypto.Hash]bool
}

// Network is a full Sawtooth deployment.
type Network struct {
	systems.ChainSet
	cfg Config

	validators []*validator

	mu      sync.Mutex
	running bool
	stop    *clock.Gate
	done    *clock.Gate

	// discardedOps counts payload operations lost to atomic batch discard
	// (counted once per decision, on validator 0's identical replay).
	discardedOps atomic.Uint64
}

var _ systems.Driver = (*Network)(nil)

// New assembles a Sawtooth network.
func New(cfg Config) *Network {
	cfg.fill()
	n := &Network{
		cfg:  cfg,
		stop: clock.NewGate(cfg.Clock),
		done: clock.NewGate(cfg.Clock),
	}
	n.ChainSet = systems.NewChainSet("sawtooth", systems.NodeSetConfig{
		System: systems.NameSawtooth, Size: cfg.Validators, Clock: cfg.Clock,
		Transport: cfg.Transport, WAL: cfg.WAL, Trace: cfg.Trace,
		MempoolDepth: n.queueBacklog,
	})

	names := make([]string, cfg.Validators)
	for i := range names {
		names[i] = fmt.Sprintf("sawtooth-%d", i)
	}
	for i := 0; i < cfg.Validators; i++ {
		v := &validator{
			queue: mempool.NewBounded[*chain.Batch](cfg.QueueDepth),
			seen:  make(map[crypto.Hash]bool),
		}
		// PBFT plus a dedicated batch-gossip endpoint.
		n.AddNode(&v.Node, names[i], names[i], gossipEndpoint(names[i]))
		v.engine = pbft.New(pbft.Config{
			ID:        v.ID,
			Replicas:  names,
			Transport: n.Transport,
			Clock:     cfg.Clock,
			OnDecide:  n.makeDecideFunc(v),
			Digest: func(p any) crypto.Hash {
				blk, ok := p.(publishedBlock)
				if !ok {
					return crypto.SumString(fmt.Sprintf("%v", p))
				}
				h := crypto.AcquireHasher()
				for _, b := range blk.Batches {
					h.AppendLeaf(b.ID)
				}
				root := h.MerkleRoot()
				h.Reset()
				h.WriteHash(root)
				h.WriteString(blk.Publisher)
				h.WriteUint64(uint64(blk.PublishedAt.UnixNano()))
				d := h.Sum()
				h.Release()
				return d
			},
		})
		n.validators = append(n.validators, v)
	}
	return n
}

// Name implements systems.Driver.
func (n *Network) Name() string { return systems.NameSawtooth }

// Start implements systems.Driver.
func (n *Network) Start() error {
	n.mu.Lock()
	if n.running {
		n.mu.Unlock()
		return nil
	}
	n.running = true
	n.mu.Unlock()

	for i, v := range n.validators {
		v := v
		n.Transport.Register(gossipEndpoint(v.ID), func(_ clock.Handle, m network.Message) {
			b, ok := m.Payload.(*chain.Batch)
			if !ok {
				return
			}
			n.admitGossip(v, b)
		})
		if err := v.engine.Start(); err != nil {
			return fmt.Errorf("start validator %d: %w", i, err)
		}
	}
	clock.Fork(n.cfg.Clock, 1)
	go n.publishLoop()
	return nil
}

// Stop implements systems.Driver.
func (n *Network) Stop(h clock.Handle) {
	n.mu.Lock()
	if !n.running {
		n.mu.Unlock()
		return
	}
	n.running = false
	n.mu.Unlock()
	n.stop.Close()
	h.Await(n.done)
	for _, v := range n.validators {
		v.engine.Stop(h)
		n.Transport.Unregister(gossipEndpoint(v.ID))
	}
	n.StopTransport(h)
}

func gossipEndpoint(id string) string { return id + "-gossip" }

// Submit implements systems.Driver for single transactions: it wraps the
// transaction in a one-element batch. Use SubmitBatch for multi-transaction
// atomic batches.
func (n *Network) Submit(entryNode int, tx *chain.Transaction) error {
	return n.SubmitBatch(entryNode, chain.NewBatch(tx))
}

// SubmitBatch admits an atomic batch at the entry validator. A full queue
// rejects with mempool.ErrQueueFull; the caller must re-send (or, as the
// paper's clients do, count the batch as lost).
func (n *Network) SubmitBatch(entryNode int, b *chain.Batch) error {
	n.mu.Lock()
	if !n.running {
		n.mu.Unlock()
		return consensus.ErrNotRunning
	}
	n.mu.Unlock()

	v := n.validators[entryNode%len(n.validators)]
	if v.Gate.Down() {
		return systems.ErrNodeDown // the client's REST endpoint is unreachable
	}
	v.mu.Lock()
	if v.seen[b.ID] {
		v.mu.Unlock()
		return nil
	}
	v.mu.Unlock()
	if err := v.queue.Add(b); err != nil {
		return err // backpressure: rejected, client must re-send
	}
	admitted := n.cfg.Clock.Now()
	for _, tx := range b.Txs {
		tx.Stages.Mark(chain.StageSubmit, admitted)
	}
	v.mu.Lock()
	v.seen[b.ID] = true
	v.mu.Unlock()
	// Gossip to the other validators so the PBFT primary can publish it.
	for _, other := range n.validators {
		if other == v {
			continue
		}
		_ = n.Transport.Send(gossipEndpoint(v.ID), gossipEndpoint(other.ID), "sawtooth.batch", b)
	}
	return nil
}

// admitGossip adds gossiped batches without backpressure errors (peer
// validators drop silently on overflow, as the real gossip layer does).
func (n *Network) admitGossip(v *validator, b *chain.Batch) {
	v.mu.Lock()
	if v.seen[b.ID] {
		v.mu.Unlock()
		return
	}
	v.seen[b.ID] = true
	v.mu.Unlock()
	_ = v.queue.Add(b)
}

// publishLoop publishes a block every BlockPublishingDelay on the PBFT
// primary.
func (n *Network) publishLoop() {
	h := clock.RegisterForked(n.cfg.Clock, "sawtooth/publisher")
	defer h.Close()
	defer n.done.Close()
	tick := n.cfg.Clock.NewTicker(n.cfg.BlockPublishingDelay)
	defer tick.Stop()
	for {
		switch i, _, _ := h.Await(n.stop, tick); i {
		case 0:
			return
		case 1:
			if n.cfg.PendingStallAtValidators > 0 &&
				n.cfg.Validators >= n.cfg.PendingStallAtValidators {
				continue // transactions stay pending, never finalized
			}
			for _, v := range n.validators {
				if !v.engine.IsPrimary() {
					continue
				}
				batches := v.queue.Take(n.cfg.MaxBlockBatches)
				if len(batches) == 0 {
					break
				}
				blk := publishedBlock{
					Batches:     batches,
					PublishedAt: n.cfg.Clock.Now(),
					Publisher:   v.ID,
				}
				if err := v.engine.Submit(h, blk); err != nil {
					for _, b := range batches {
						_ = v.queue.Add(b)
					}
					break
				}
				for _, b := range batches {
					for _, tx := range b.Txs {
						tx.Stages.Mark(chain.StageQueue, blk.PublishedAt)
					}
				}
				break
			}
		}
	}
}

// makeDecideFunc builds the commit pipeline for one validator: batches
// execute atomically; a failing batch is discarded entirely and its
// transactions produce no events (lost end to end). The pipeline is gated
// per validator: a crashed validator buffers decided blocks and replays
// them on restart (Sawtooth's catch-up).
func (n *Network) makeDecideFunc(v *validator) consensus.DecideFunc {
	return func(h clock.Handle, d consensus.Decision) {
		txs := 0
		if blk, ok := d.Payload.(publishedBlock); ok {
			for _, b := range blk.Batches {
				txs += len(b.Txs)
			}
		}
		v.Gate.Commit(h, txs, func() { n.applyDecision(v, d) })
	}
}

func (n *Network) applyDecision(v *validator, d consensus.Decision) {
	blk, ok := d.Payload.(publishedBlock)
	if !ok {
		return
	}
	decided := n.cfg.Clock.Now()
	for _, b := range blk.Batches {
		for _, tx := range b.Txs {
			tx.Stages.Mark(chain.StageConsensus, decided)
		}
	}
	// Dry-run each batch against a shadow to enforce atomicity, then
	// apply the survivors.
	var surviving []*chain.Transaction
	var survivingBatches []*chain.Batch
	for _, b := range blk.Batches {
		if batchExecutes(b, v.State) {
			surviving = append(surviving, b.Txs...)
			survivingBatches = append(survivingBatches, b)
		} else if v == n.validators[0] {
			// Every validator discards the same batches; count the lost
			// payloads once for the conflict breakdown.
			for _, tx := range b.Txs {
				n.discardedOps.Add(uint64(tx.OpCount()))
			}
		}
	}
	cb := chain.NewBlock(v.Ledger.Head(), blk.Publisher, blk.PublishedAt, surviving)
	if err := v.Ledger.Append(cb); err != nil {
		return
	}
	// One consensus-round span per sampled block, emitted at validator 0's
	// apply site only (every validator applies the identical decision).
	if tr := n.cfg.Trace; v == n.validators[0] && tr.Sampled(cb.Number) {
		tr.Add(trace.Span{Name: "round", Cat: "consensus", Proc: systems.NameSawtooth,
			Lane: "consensus", Start: blk.PublishedAt.UnixNano(), End: decided.UnixNano(), Block: cb.Number})
	}
	now := n.cfg.Clock.Now()
	for txNum, batch := range survivingBatches {
		for _, tx := range batch.Txs {
			applyTx(tx, v.State, cb.Number, txNum)
			tx.Stages.Mark(chain.StageExecute, n.cfg.Clock.Now())
			v.HubNode.Committed(systems.Event{
				TxID:      tx.ID,
				Client:    tx.Client,
				Committed: true,
				ValidOK:   true,
				OpCount:   tx.OpCount(),
				BlockNum:  cb.Number,
				Stages:    &tx.Stages,
			}, now)
		}
	}
	n.scrubQueue(v, blk.Batches)
}

// batchExecutes dry-runs a batch against a copy-on-read overlay of the
// state and reports whether every member transaction succeeds.
func batchExecutes(b *chain.Batch, st *statestore.KVStore) bool {
	overlay := systems.NewOverlay(st)
	for _, tx := range b.Txs {
		for _, op := range tx.Ops {
			if err := iel.Execute(op, overlay); err != nil {
				return false
			}
		}
	}
	return true
}

// applyTx commits a transaction's writes to the world state.
func applyTx(tx *chain.Transaction, st *statestore.KVStore, blockNum uint64, txNum int) {
	a := &systems.KVOps{State: st, Ver: statestore.Version{BlockNum: blockNum, TxNum: txNum}}
	for _, op := range tx.Ops {
		_ = iel.Execute(op, a)
	}
}

// scrubQueue removes published batches from a validator's queue.
func (n *Network) scrubQueue(v *validator, published []*chain.Batch) {
	ids := make(map[crypto.Hash]bool, len(published))
	for _, b := range published {
		ids[b.ID] = true
	}
	for _, b := range v.queue.Take(0) {
		if !ids[b.ID] {
			_ = v.queue.Add(b)
		}
	}
}

// Drained implements systems.Quiescer: all validator queues are empty.
func (n *Network) Drained() bool { return n.queueBacklog() == 0 }

// queueBacklog is the batches waiting in the validators' queues.
func (n *Network) queueBacklog() int {
	depth := 0
	for _, v := range n.validators {
		depth += v.queue.Len()
	}
	return depth
}

// QueueStats aggregates admission counters across validators.
func (n *Network) QueueStats() (admitted, rejected uint64) {
	for _, v := range n.validators {
		a, r := v.queue.Stats()
		admitted += a
		rejected += r
	}
	return admitted, rejected
}

// ChainHeight reports validator 0's block height.
func (n *Network) ChainHeight() uint64 { return n.validators[0].Ledger.Height() }

// ConflictCounts implements systems.ConflictReporter: payload operations
// lost to the atomic batch discard ("if a transaction fails within a batch,
// the entire batch ... is completely discarded", §5.6). These never produce
// client events, so the runner folds them in system-side.
func (n *Network) ConflictCounts() map[string]uint64 {
	if d := n.discardedOps.Load(); d > 0 {
		return map[string]uint64{systems.AbortBatchDiscarded: d}
	}
	return nil
}
