// Package quorum simulates ConsenSys Quorum with Istanbul BFT consensus as
// benchmarked in the paper: an Ethereum-derived account-model chain with the
// order-execute paradigm, block production every istanbul.blockperiod
// seconds, and gossiped transaction pools.
//
// Behaviours reproduced from the paper:
//   - Order-execute: transactions are ordered first and executed after
//     consensus; failed executions are still included in the block (§5.5).
//   - istanbul.blockperiod ∈ {1, 2, 5, 10}s controls block cadence (Table 6).
//   - The liveness violation: "when istanbul.blockperiod is low, combined
//     with a high rate limiter value, Quorum adds transactions to a queue,
//     but the queue is no longer processed" — nodes keep producing empty
//     blocks and every transaction is lost (§5.5). Modeled by a stall that
//     latches when the pool backlog crosses StallQueueLimit while the block
//     period is at or below StallBlockPeriod.
package quorum

import (
	"fmt"
	"sync"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/consensus/ibft"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/mempool"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/statestore"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/trace"
	"github.com/coconut-bench/coconut/internal/wal"
)

// Config parameterizes a Quorum network.
type Config struct {
	// Validators is the network size (paper: 4).
	Validators int
	// BlockPeriod is istanbul.blockperiod (paper default 1s; Table 6 uses
	// {1, 2, 5, 10}s; benchmarks scale it down).
	BlockPeriod time.Duration
	// MaxBlockTxs caps transactions per block (the gas-limit equivalent).
	MaxBlockTxs int
	// StallBlockPeriod is the block period at or below which the livelock
	// can latch (the paper observes it for blockperiod <= 2s).
	StallBlockPeriod time.Duration
	// StallQueueLimit is the pool backlog that triggers the livelock when
	// the block period is at or below StallBlockPeriod.
	StallQueueLimit int
	// Transport carries all messages; nil creates a private fabric.
	Transport *network.Transport
	// Clock drives timers.
	Clock clock.Clock
	// WAL, when set, mounts a write-ahead log on every validator's commit
	// gate: decided blocks are durably recorded before applying, and
	// restart replays the log instead of recovery being free.
	WAL *wal.Options
	// Trace, when set, receives sampled spans: consensus rounds, WAL
	// appends/fsyncs, and (on a private transport) network hops.
	Trace *trace.Tracer
}

func (c *Config) fill() {
	if c.Validators <= 0 {
		c.Validators = 4
	}
	if c.BlockPeriod <= 0 {
		c.BlockPeriod = time.Second
	}
	if c.MaxBlockTxs <= 0 {
		c.MaxBlockTxs = 4096
	}
	if c.StallQueueLimit <= 0 {
		c.StallQueueLimit = 8192
	}
	if c.Clock == nil {
		c.Clock = clock.New()
	}
}

// producedBlock is the IBFT payload.
type producedBlock struct {
	Txs      []*chain.Transaction
	FormedAt time.Time
	Producer string
}

// validator is one Quorum node.
type validator struct {
	systems.Node
	engine *ibft.Engine
	pool   *mempool.Pool[*chain.Transaction]

	mu      sync.Mutex
	seen    map[crypto.Hash]bool
	stalled bool
}

// Network is a full Quorum deployment.
type Network struct {
	systems.ChainSet
	cfg Config

	validators []*validator

	mu      sync.Mutex
	running bool
	stop    *clock.Gate
	done    *clock.Gate
}

var _ systems.Driver = (*Network)(nil)

// New assembles a Quorum network.
func New(cfg Config) *Network {
	cfg.fill()
	n := &Network{
		cfg:  cfg,
		stop: clock.NewGate(cfg.Clock),
		done: clock.NewGate(cfg.Clock),
	}
	n.ChainSet = systems.NewChainSet("quorum", systems.NodeSetConfig{
		System: systems.NameQuorum, Size: cfg.Validators, Clock: cfg.Clock,
		Transport: cfg.Transport, WAL: cfg.WAL, Trace: cfg.Trace,
		MempoolDepth: n.poolBacklog,
	})

	names := make([]string, cfg.Validators)
	for i := range names {
		names[i] = fmt.Sprintf("quorum-%d", i)
	}
	for i := 0; i < cfg.Validators; i++ {
		v := &validator{
			pool: mempool.NewUnbounded[*chain.Transaction](),
			seen: make(map[crypto.Hash]bool),
		}
		// IBFT plus a dedicated tx-gossip endpoint.
		n.AddNode(&v.Node, names[i], names[i], gossipEndpoint(names[i]))
		v.engine = ibft.New(ibft.Config{
			ID:         v.ID,
			Validators: names,
			Transport:  n.Transport,
			Clock:      cfg.Clock,
			OnDecide:   n.makeDecideFunc(v),
			Digest: func(p any) crypto.Hash {
				blk, ok := p.(producedBlock)
				if !ok {
					return crypto.SumString(fmt.Sprintf("%v", p))
				}
				h := crypto.AcquireHasher()
				for _, tx := range blk.Txs {
					h.AppendLeaf(tx.ID)
				}
				root := h.MerkleRoot()
				h.Reset()
				h.WriteHash(root)
				h.WriteString(blk.Producer)
				h.WriteUint64(uint64(blk.FormedAt.UnixNano()))
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
func (n *Network) Name() string { return systems.NameQuorum }

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
		// Gossip endpoints piggyback on the IBFT transport registration;
		// use a dedicated endpoint per validator for tx gossip.
		gossipID := gossipEndpoint(v.ID)
		v := v
		n.Transport.Register(gossipID, func(_ clock.Handle, m network.Message) {
			tx, ok := m.Payload.(*chain.Transaction)
			if !ok {
				return
			}
			n.admit(v, tx)
		})
		if err := v.engine.Start(); err != nil {
			return fmt.Errorf("start validator %d: %w", i, err)
		}
	}
	clock.Fork(n.cfg.Clock, 1)
	go n.produceLoop()
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

// Submit implements systems.Driver: the transaction enters the entry
// validator's pool and is gossiped to the others. Quorum's pool is
// unbounded, so Submit never rejects — overload shows up later as the
// livelock.
func (n *Network) Submit(entryNode int, tx *chain.Transaction) error {
	n.mu.Lock()
	if !n.running {
		n.mu.Unlock()
		return consensus.ErrNotRunning
	}
	n.mu.Unlock()

	v := n.validators[entryNode%len(n.validators)]
	if v.Gate.Down() {
		return systems.ErrNodeDown // the client's RPC node is unreachable
	}
	n.admit(v, tx)
	for _, other := range n.validators {
		if other == v {
			continue
		}
		_ = n.Transport.Send(gossipEndpoint(v.ID), gossipEndpoint(other.ID), "quorum.tx", tx)
	}
	return nil
}

// admit adds a transaction to a validator's pool once.
func (n *Network) admit(v *validator, tx *chain.Transaction) {
	v.mu.Lock()
	if v.seen[tx.ID] {
		v.mu.Unlock()
		return
	}
	v.seen[tx.ID] = true
	v.mu.Unlock()
	_ = v.pool.Add(tx)
	// First admission into any pool ends the submit stage (gossip copies
	// share the pointer; the CAS keeps the earliest).
	tx.Stages.Mark(chain.StageSubmit, n.cfg.Clock.Now())
}

// produceLoop forms a block every BlockPeriod on whichever validator is the
// IBFT proposer, and evaluates the livelock condition.
func (n *Network) produceLoop() {
	h := clock.RegisterForked(n.cfg.Clock, "quorum/producer")
	defer h.Close()
	defer n.done.Close()
	tick := n.cfg.Clock.NewTicker(n.cfg.BlockPeriod)
	defer tick.Stop()
	for {
		switch i, _, _ := h.Await(n.stop, tick); i {
		case 0:
			return
		case 1:
			for _, v := range n.validators {
				if !v.engine.IsProposer() {
					continue
				}
				n.produce(h, v)
				break
			}
		}
	}
}

func (n *Network) produce(h clock.Handle, v *validator) {
	// Livelock latch: at a low block period under a deep backlog, the tx
	// queue permanently stops being processed (paper §5.5). The node still
	// participates in consensus and produces empty blocks.
	v.mu.Lock()
	if !v.stalled &&
		n.cfg.StallBlockPeriod > 0 &&
		n.cfg.BlockPeriod <= n.cfg.StallBlockPeriod &&
		v.pool.Len() > n.cfg.StallQueueLimit {
		v.stalled = true
	}
	stalled := v.stalled
	v.mu.Unlock()

	var txs []*chain.Transaction
	if !stalled {
		txs = v.pool.Take(n.cfg.MaxBlockTxs)
	}
	blk := producedBlock{Txs: txs, FormedAt: n.cfg.Clock.Now(), Producer: v.ID}
	if err := v.engine.Submit(h, blk); err != nil {
		if !stalled {
			// Requeue so the next period retries.
			for _, tx := range txs {
				_ = v.pool.Add(tx)
			}
		}
		return
	}
	for _, tx := range txs {
		tx.Stages.Mark(chain.StageQueue, blk.FormedAt)
	}
}

// makeDecideFunc builds the order-execute commit pipeline for validator v.
// The commit plane is gated per validator: while v is crashed its decided
// blocks buffer, and RestartNode replays them in decision order. With a
// WAL mounted, the block's record is appended before it applies (an empty
// block still writes a header-only record).
func (n *Network) makeDecideFunc(v *validator) consensus.DecideFunc {
	return func(h clock.Handle, d consensus.Decision) {
		txs := 0
		if blk, ok := d.Payload.(producedBlock); ok {
			txs = len(blk.Txs)
		}
		v.Gate.Commit(h, txs, func() { n.applyDecision(v, d) })
	}
}

func (n *Network) applyDecision(v *validator, d consensus.Decision) {
	blk, ok := d.Payload.(producedBlock)
	if !ok {
		return
	}
	// Execute after ordering against this validator's own state; all
	// validators execute identically in block order.
	cb := chain.NewBlock(v.Ledger.Head(), blk.Producer, blk.FormedAt, blk.Txs)
	if err := v.Ledger.Append(cb); err != nil {
		return
	}
	now := n.cfg.Clock.Now()
	// One consensus-round span per sampled block, emitted at validator 0's
	// apply site only (every validator applies the identical decision).
	if tr := n.cfg.Trace; v == n.validators[0] && tr.Sampled(cb.Number) {
		tr.Add(trace.Span{Name: "round", Cat: "consensus", Proc: systems.NameQuorum,
			Lane: "consensus", Start: blk.FormedAt.UnixNano(), End: now.UnixNano(), Block: cb.Number})
	}
	for txNum, tx := range blk.Txs {
		tx.Stages.Mark(chain.StageConsensus, now)
		execErr := executeTx(tx, v.State, cb.Number, txNum)
		tx.Stages.Mark(chain.StageExecute, n.cfg.Clock.Now())
		ev := systems.Event{
			TxID:      tx.ID,
			Client:    tx.Client,
			Committed: true, // Ethereum includes failed txs in blocks
			ValidOK:   execErr == nil,
			OpCount:   tx.OpCount(),
			BlockNum:  cb.Number,
			Stages:    &tx.Stages,
		}
		if execErr != nil {
			ev.Reason = execErr.Error()
			ev.Code = systems.ClassifyAbort(execErr)
		}
		v.HubNode.Committed(ev, now)
	}
	// Remove included txs from the local pool (they may still be queued
	// on validators that did not produce the block).
	n.scrubPool(v, blk.Txs)
}

// scrubPool removes included transactions from a validator's pending pool.
func (n *Network) scrubPool(v *validator, included []*chain.Transaction) {
	if len(included) == 0 {
		return
	}
	ids := make(map[crypto.Hash]bool, len(included))
	for _, tx := range included {
		ids[tx.ID] = true
	}
	remaining := v.pool.Take(0)
	for _, tx := range remaining {
		if !ids[tx.ID] {
			_ = v.pool.Add(tx)
		}
	}
}

// executeTx runs all operations of a transaction against the world state.
func executeTx(tx *chain.Transaction, st *statestore.KVStore, blockNum uint64, txNum int) error {
	ops := &systems.KVOps{State: st, Ver: statestore.Version{BlockNum: blockNum, TxNum: txNum}}
	for _, op := range tx.Ops {
		if err := iel.Execute(op, ops); err != nil {
			return err
		}
	}
	return nil
}

// Stalled reports whether any validator has latched the livelock.
func (n *Network) Stalled() bool {
	for _, v := range n.validators {
		v.mu.Lock()
		s := v.stalled
		v.mu.Unlock()
		if s {
			return true
		}
	}
	return false
}

// Drained implements systems.Quiescer: every pool is empty, or the
// livelock has latched (in which case the backlog will never drain and
// waiting longer is pointless).
func (n *Network) Drained() bool { return n.Stalled() || n.poolBacklog() == 0 }

// ChainHeight reports validator 0's block height.
func (n *Network) ChainHeight() uint64 { return n.validators[0].Ledger.Height() }

// poolBacklog is the pending transactions summed across validator pools.
func (n *Network) poolBacklog() int {
	depth := 0
	for _, v := range n.validators {
		depth += v.pool.Len()
	}
	return depth
}

// PoolDepth reports the deepest validator pool backlog.
func (n *Network) PoolDepth() int {
	depth := 0
	for _, v := range n.validators {
		if l := v.pool.Len(); l > depth {
			depth = l
		}
	}
	return depth
}
