// Package diem simulates the Diem (formerly Libra) blockchain as benchmarked
// in the paper: DiemBFT consensus with rotating leaders, blocks bounded by
// max_block_size, account sequence numbers enforced at admission, and the
// "spiking" behaviour in which validators temporarily stop validating
// transactions (paper §5.7, citing Balster).
//
// Behaviours reproduced from the paper:
//   - max_block_size ∈ {100, 500, 1000, 2000} bounds the transactions the
//     round leader pulls per proposal (Table 5); varying it "only [has] a
//     minor impact on the overall performance".
//   - A significant number of transactions fail under load: the bounded
//     admission queue rejects while validators spike, so blocks never
//     saturate and throughput decreases as the rate limiter rises.
//   - Empty blocks keep rounds advancing while a leader spikes.
package diem

import (
	"fmt"
	"sync"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/consensus/diembft"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/mempool"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/statestore"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/trace"
	"github.com/coconut-bench/coconut/internal/wal"
)

// Config parameterizes a Diem network.
type Config struct {
	// Validators is the network size (paper: 4).
	Validators int
	// MaxBlockSize is the paper's max_block_size (default 3000 upstream;
	// the paper sweeps {100, 500, 1000, 2000}).
	MaxBlockSize int
	// RoundInterval paces DiemBFT rounds.
	RoundInterval time.Duration
	// MempoolDepth bounds each validator's admission queue.
	MempoolDepth int
	// SpikePeriod is how often a validator enters a validation stall; 0
	// disables spiking.
	SpikePeriod time.Duration
	// SpikeDuration is how long each stall lasts.
	SpikeDuration time.Duration
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
	if c.MaxBlockSize <= 0 {
		c.MaxBlockSize = 3000
	}
	if c.RoundInterval <= 0 {
		c.RoundInterval = 20 * time.Millisecond
	}
	if c.MempoolDepth <= 0 {
		c.MempoolDepth = 2048
	}
	if c.SpikeDuration <= 0 {
		c.SpikeDuration = c.RoundInterval * 4
	}
	if c.Clock == nil {
		c.Clock = clock.New()
	}
}

// proposedBlock is the DiemBFT payload.
type proposedBlock struct {
	Txs      []*chain.Transaction
	FormedAt time.Time
	Proposer string
}

// validator is one Diem node.
type validator struct {
	systems.Node
	engine *diembft.Engine
	pool   *mempool.Pool[*chain.Transaction]

	mu         sync.Mutex
	spikeUntil time.Time
	lastSpike  time.Time
}

// Network is a full Diem deployment.
type Network struct {
	systems.ChainSet
	cfg Config

	validators []*validator

	mu      sync.Mutex
	running bool
}

var _ systems.Driver = (*Network)(nil)

// New assembles a Diem network.
func New(cfg Config) *Network {
	cfg.fill()
	n := &Network{cfg: cfg}
	n.ChainSet = systems.NewChainSet("diem", systems.NodeSetConfig{
		System: systems.NameDiem, Size: cfg.Validators, Clock: cfg.Clock,
		Transport: cfg.Transport, WAL: cfg.WAL, Trace: cfg.Trace,
		MempoolDepth: n.poolBacklog,
	})

	names := make([]string, cfg.Validators)
	for i := range names {
		names[i] = fmt.Sprintf("diem-%d", i)
	}
	for i := 0; i < cfg.Validators; i++ {
		v := &validator{
			pool: mempool.NewBounded[*chain.Transaction](cfg.MempoolDepth),
		}
		v.lastSpike = cfg.Clock.Now()
		n.AddNode(&v.Node, names[i], names[i])
		v.engine = diembft.New(diembft.Config{
			ID:            v.ID,
			Validators:    names,
			Transport:     n.Transport,
			Clock:         cfg.Clock,
			RoundInterval: cfg.RoundInterval,
			OnDecide:      n.makeDecideFunc(v),
			PayloadSource: n.makePayloadSource(v),
		})
		n.validators = append(n.validators, v)
	}
	return n
}

// Name implements systems.Driver.
func (n *Network) Name() string { return systems.NameDiem }

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
		if err := v.engine.Start(); err != nil {
			return fmt.Errorf("start validator %d: %w", i, err)
		}
	}
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
	for _, v := range n.validators {
		v.engine.Stop(h)
	}
	n.StopTransport(h)
}

// Submit implements systems.Driver: admission control checks the bounded
// mempool. Rejections surface to the client, which counts the transaction
// as failed (the paper's dominant Diem loss mode).
func (n *Network) Submit(entryNode int, tx *chain.Transaction) error {
	n.mu.Lock()
	if !n.running {
		n.mu.Unlock()
		return consensus.ErrNotRunning
	}
	n.mu.Unlock()

	v := n.validators[entryNode%len(n.validators)]
	if v.Gate.Down() {
		return systems.ErrNodeDown // the admission endpoint is unreachable
	}
	if err := v.pool.Add(tx); err != nil {
		return err
	}
	tx.Stages.Mark(chain.StageSubmit, n.cfg.Clock.Now())
	return nil
}

// makePayloadSource pulls up to MaxBlockSize transactions from the leader's
// pool at proposal time — unless the validator is spiking, in which case it
// proposes nothing and the engine emits an empty block.
func (n *Network) makePayloadSource(v *validator) func() any {
	return func() any {
		if n.spiking(v) {
			return nil
		}
		txs := v.pool.Take(n.cfg.MaxBlockSize)
		if len(txs) == 0 {
			return nil
		}
		formed := n.cfg.Clock.Now()
		for _, tx := range txs {
			tx.Stages.Mark(chain.StageQueue, formed)
		}
		return proposedBlock{Txs: txs, FormedAt: formed, Proposer: v.ID}
	}
}

// spiking evaluates and advances the validator's spike schedule.
func (n *Network) spiking(v *validator) bool {
	if n.cfg.SpikePeriod <= 0 {
		return false
	}
	now := n.cfg.Clock.Now()
	v.mu.Lock()
	defer v.mu.Unlock()
	if now.Before(v.spikeUntil) {
		return true
	}
	if now.Sub(v.lastSpike) >= n.cfg.SpikePeriod {
		v.lastSpike = now
		v.spikeUntil = now.Add(n.cfg.SpikeDuration)
		return true
	}
	return false
}

// makeDecideFunc builds the commit pipeline: execute in order, append to the
// ledger, report per-transaction commits. The pipeline is gated per
// validator: a crashed validator buffers decided blocks and replays them on
// restart (Diem's state sync).
func (n *Network) makeDecideFunc(v *validator) consensus.DecideFunc {
	return func(h clock.Handle, d consensus.Decision) {
		txs := 0
		if blk, ok := d.Payload.(proposedBlock); ok {
			txs = len(blk.Txs)
		}
		v.Gate.Commit(h, txs, func() { n.applyDecision(v, d) })
	}
}

func (n *Network) applyDecision(v *validator, d consensus.Decision) {
	blk, ok := d.Payload.(proposedBlock)
	if !ok {
		return
	}
	cb := chain.NewBlock(v.Ledger.Head(), blk.Proposer, blk.FormedAt, blk.Txs)
	if err := v.Ledger.Append(cb); err != nil {
		return
	}
	now := n.cfg.Clock.Now()
	// One consensus-round span per sampled block, emitted at validator 0's
	// apply site only (every validator applies the identical decision).
	if tr := n.cfg.Trace; v == n.validators[0] && tr.Sampled(cb.Number) {
		tr.Add(trace.Span{Name: "round", Cat: "consensus", Proc: systems.NameDiem,
			Lane: "consensus", Start: blk.FormedAt.UnixNano(), End: now.UnixNano(), Block: cb.Number})
	}
	for txNum, tx := range blk.Txs {
		tx.Stages.Mark(chain.StageConsensus, now)
		execErr := executeTx(tx, v.State, cb.Number, txNum)
		tx.Stages.Mark(chain.StageExecute, n.cfg.Clock.Now())
		ev := systems.Event{
			TxID:      tx.ID,
			Client:    tx.Client,
			Committed: true,
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
}

func executeTx(tx *chain.Transaction, st *statestore.KVStore, blockNum uint64, txNum int) error {
	a := &systems.KVOps{State: st, Ver: statestore.Version{BlockNum: blockNum, TxNum: txNum}}
	for _, op := range tx.Ops {
		if err := iel.Execute(op, a); err != nil {
			return err
		}
	}
	return nil
}

// Drained implements systems.Quiescer: every validator mempool is empty.
func (n *Network) Drained() bool { return n.poolBacklog() == 0 }

// poolBacklog is the pending transactions summed across validator
// mempools.
func (n *Network) poolBacklog() int {
	depth := 0
	for _, v := range n.validators {
		depth += v.pool.Len()
	}
	return depth
}

// PoolStats aggregates admission counters across validators.
func (n *Network) PoolStats() (admitted, rejected uint64) {
	for _, v := range n.validators {
		a, r := v.pool.Stats()
		admitted += a
		rejected += r
	}
	return admitted, rejected
}

// ChainHeight reports validator 0's block height.
func (n *Network) ChainHeight() uint64 { return n.validators[0].Ledger.Height() }
