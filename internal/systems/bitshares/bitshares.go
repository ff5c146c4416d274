// Package bitshares simulates BitShares (Graphene) as benchmarked in the
// paper: Delegated Proof-of-Stake block production on a witness schedule,
// multi-operation transactions, and atomic all-or-nothing transaction
// semantics.
//
// Behaviours reproduced from the paper:
//   - block_interval ∈ {1, 2, 5, 10}s paces block production (Table 6);
//     finalization latency tracks the interval (§5.3).
//   - Transactions carry 1, 50, or 100 operations; each operation counts as
//     one transaction for MTPS (§4.5).
//   - "BitShares does not include interacting operations or transactions in
//     a block" (§5.3): a transaction whose operations touch state keys
//     already touched by an earlier transaction in the forming block is
//     excluded and permanently lost — the source of the SendPayment
//     collapse.
//   - Atomicity: "if an operation fails, the whole transaction is
//     discarded" (§5.3).
//   - Topology: 4 nodes, n-1 = 3 witnesses (Table 4).
package bitshares

import (
	"fmt"
	"sync"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/consensus/dpos"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/statestore"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/trace"
	"github.com/coconut-bench/coconut/internal/wal"
)

// Config parameterizes a BitShares network.
type Config struct {
	// Nodes is the network size (paper: 4, with Nodes-1 witnesses).
	Nodes int
	// BlockInterval is the paper's block_interval (default 5s upstream,
	// swept over {1, 2, 5, 10}s).
	BlockInterval time.Duration
	// MaxBlockTxs caps transactions per block.
	MaxBlockTxs int
	// ConflictWindowTxs sizes the interacting-operation exclusion window in
	// recently included transactions. The paper's exclusion is per forming
	// block (§5.3); under time scaling a block holds proportionally fewer
	// transactions, so the window is expressed in transactions to preserve
	// the paper's conflict-collision ratio. 0 restricts exclusion to the
	// current block only.
	ConflictWindowTxs int
	// Transport carries all messages; nil creates a private fabric.
	Transport *network.Transport
	// Clock drives timers.
	Clock clock.Clock
	// Seed randomizes the witness schedule deterministically.
	Seed int64
	// WAL, when set, mounts a write-ahead log on every node's commit gate
	// (see systems.DurableGate).
	WAL *wal.Options
	// Trace, when set, receives sampled spans: consensus rounds, WAL
	// appends/fsyncs, and (on a private transport) network hops.
	Trace *trace.Tracer
}

func (c *Config) fill() {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.BlockInterval <= 0 {
		c.BlockInterval = 5 * time.Second
	}
	if c.MaxBlockTxs <= 0 {
		c.MaxBlockTxs = 8192
	}
	if c.Clock == nil {
		c.Clock = clock.New()
	}
}

// node is one BitShares node (witness or observer).
type node struct {
	systems.Node
	engine *dpos.Engine
}

// Network is a full BitShares deployment.
type Network struct {
	systems.ChainSet
	cfg Config

	nodes []*node

	mu            sync.Mutex
	running       bool
	excluded      uint64 // transactions dropped by conflict exclusion
	excludedOps   uint64 // payload operations those transactions carried
	execFailedOps uint64 // payload operations discarded by atomic execution failure

	// Sliding conflict window: the touched-key sets of the most recent
	// included transactions, oldest first.
	windowKeys []map[string]bool
}

var _ systems.Driver = (*Network)(nil)

// New assembles a BitShares network.
func New(cfg Config) *Network {
	cfg.fill()
	n := &Network{cfg: cfg}
	n.ChainSet = systems.NewChainSet("bitshares", systems.NodeSetConfig{
		System: systems.NameBitShares, Size: cfg.Nodes, Clock: cfg.Clock,
		Transport: cfg.Transport, WAL: cfg.WAL, Trace: cfg.Trace,
		MempoolDepth: n.pendingBacklog,
	})

	witnessCount := cfg.Nodes - 1
	if witnessCount < 1 {
		witnessCount = 1
	}
	witnesses := make([]string, witnessCount)
	var observers []string
	names := make([]string, cfg.Nodes)
	for i := range names {
		names[i] = fmt.Sprintf("bitshares-%d", i)
		if i < witnessCount {
			witnesses[i] = names[i]
		} else {
			observers = append(observers, names[i])
		}
	}

	for i := 0; i < cfg.Nodes; i++ {
		nd := &node{}
		n.AddNode(&nd.Node, names[i], names[i])
		nd.engine = dpos.New(dpos.Config{
			ID:            nd.ID,
			Witnesses:     witnesses,
			Observers:     observers,
			Transport:     n.Transport,
			Clock:         cfg.Clock,
			BlockInterval: cfg.BlockInterval,
			MaxBlockItems: cfg.MaxBlockTxs,
			ShuffleSeed:   cfg.Seed,
			PackFilter:    n.conflictFilter,
			OnDecide:      n.makeDecideFunc(nd),
		})
		n.nodes = append(n.nodes, nd)
	}
	return n
}

// Name implements systems.Driver.
func (n *Network) Name() string { return systems.NameBitShares }

// Start implements systems.Driver.
func (n *Network) Start() error {
	n.mu.Lock()
	if n.running {
		n.mu.Unlock()
		return nil
	}
	n.running = true
	n.mu.Unlock()
	for i, nd := range n.nodes {
		if err := nd.engine.Start(); err != nil {
			return fmt.Errorf("start node %d: %w", i, err)
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
	for _, nd := range n.nodes {
		nd.engine.Stop(h)
	}
	n.StopTransport(h)
}

// Submit implements systems.Driver: the transaction is gossiped to all
// witnesses; whichever owns the next slot packs it.
func (n *Network) Submit(entryNode int, tx *chain.Transaction) error {
	n.mu.Lock()
	if !n.running {
		n.mu.Unlock()
		return consensus.ErrNotRunning
	}
	n.mu.Unlock()
	nd := n.nodes[entryNode%len(n.nodes)]
	if nd.Gate.Down() {
		return systems.ErrNodeDown // the client's API node is unreachable
	}
	// DPoS Submit only gossips: it never parks, so it needs no caller
	// handle.
	if err := nd.engine.Submit(clock.Handle{}, tx); err != nil {
		return err
	}
	tx.Stages.Mark(chain.StageSubmit, n.cfg.Clock.Now())
	return nil
}

// conflictFilter implements the paper's interacting-operation exclusion: a
// transaction whose operations touch a state key already touched by a
// recently included transaction (same forming block, or within the sliding
// ConflictWindowTxs window) is dropped.
func (n *Network) conflictFilter(items []any) (included, excluded []any) {
	n.mu.Lock()
	defer n.mu.Unlock()

	inWindow := func(key string) bool {
		for _, set := range n.windowKeys {
			if set[key] {
				return true
			}
		}
		return false
	}

	packedAt := n.cfg.Clock.Now()
	blockTouched := make(map[string]bool)
	for _, it := range items {
		tx, ok := it.(*chain.Transaction)
		if !ok {
			continue
		}
		conflict := false
		keys := make(map[string]bool, len(tx.Ops))
		for _, op := range tx.Ops {
			for _, k := range iel.WrittenKeys(op) {
				keys[k] = true
				if blockTouched[k] || inWindow(k) {
					conflict = true
				}
			}
		}
		if conflict {
			excluded = append(excluded, it)
			continue
		}
		for k := range keys {
			blockTouched[k] = true
		}
		if n.cfg.ConflictWindowTxs > 0 {
			n.windowKeys = append(n.windowKeys, keys)
			if len(n.windowKeys) > n.cfg.ConflictWindowTxs {
				n.windowKeys = n.windowKeys[1:]
			}
		}
		// Packed into the forming block: the queue wait ends here.
		tx.Stages.Mark(chain.StageQueue, packedAt)
		included = append(included, it)
	}
	n.excluded += uint64(len(excluded))
	for _, it := range excluded {
		if tx, ok := it.(*chain.Transaction); ok {
			n.excludedOps += uint64(tx.OpCount())
		}
	}
	return included, excluded
}

// makeDecideFunc builds the per-node commit pipeline: apply each
// transaction atomically; a failed operation discards the whole
// transaction without a client event. The pipeline is gated per node: a
// crashed node buffers produced blocks and replays them on restart
// (Graphene's chain resync).
func (n *Network) makeDecideFunc(nd *node) consensus.DecideFunc {
	return func(h clock.Handle, d consensus.Decision) {
		txs := 0
		if blk, ok := d.Payload.(dpos.ProducedBlock); ok {
			txs = len(blk.Items)
		}
		nd.Gate.Commit(h, txs, func() { n.applyDecision(nd, d) })
	}
}

func (n *Network) applyDecision(nd *node, d consensus.Decision) {
	blk, ok := d.Payload.(dpos.ProducedBlock)
	if !ok {
		return
	}
	decided := n.cfg.Clock.Now()
	var surviving []*chain.Transaction
	for _, it := range blk.Items {
		tx, ok := it.(*chain.Transaction)
		if !ok {
			continue
		}
		tx.Stages.Mark(chain.StageConsensus, decided)
		if txExecutes(tx, nd.State) {
			surviving = append(surviving, tx)
		} else if nd == n.nodes[0] {
			// Atomic discard ("if an operation fails, the whole transaction
			// is discarded", §5.3) is identical on every node; count the
			// lost payloads once for the conflict breakdown.
			n.mu.Lock()
			n.execFailedOps += uint64(tx.OpCount())
			n.mu.Unlock()
		}
	}
	ts := time.Unix(0, int64(blk.Slot)) // deterministic per-slot stamp
	cb := chain.NewBlock(nd.Ledger.Head(), blk.Witness, ts, surviving)
	if err := nd.Ledger.Append(cb); err != nil {
		return
	}
	// One consensus-round span per sampled block, emitted at node 0's apply
	// site only (every node applies the identical produced block).
	if tr := n.cfg.Trace; nd == n.nodes[0] && tr.Sampled(cb.Number) {
		tr.Add(trace.Span{Name: "round", Cat: "consensus", Proc: systems.NameBitShares,
			Lane: "consensus", Start: ts.UnixNano(), End: decided.UnixNano(), Block: cb.Number})
	}
	now := n.cfg.Clock.Now()
	for txNum, tx := range surviving {
		applyTx(tx, nd.State, cb.Number, txNum)
		tx.Stages.Mark(chain.StageExecute, n.cfg.Clock.Now())
		nd.HubNode.Committed(systems.Event{
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

// txExecutes dry-runs every operation of an atomic transaction.
func txExecutes(tx *chain.Transaction, st *statestore.KVStore) bool {
	overlay := systems.NewOverlay(st)
	for _, op := range tx.Ops {
		if err := iel.Execute(op, overlay); err != nil {
			return false
		}
	}
	return true
}

// applyTx commits a transaction's operations to the world state.
func applyTx(tx *chain.Transaction, st *statestore.KVStore, blockNum uint64, txNum int) {
	a := &systems.KVOps{State: st, Ver: statestore.Version{BlockNum: blockNum, TxNum: txNum}}
	for _, op := range tx.Ops {
		_ = iel.Execute(op, a)
	}
}

// pendingBacklog is the DPoS engines' pending transactions summed across
// nodes.
func (n *Network) pendingBacklog() int {
	depth := 0
	for _, nd := range n.nodes {
		depth += nd.engine.PendingCount()
	}
	return depth
}

// ExcludedCount reports transactions dropped by conflict exclusion.
func (n *Network) ExcludedCount() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.excluded
}

// ConflictCounts implements systems.ConflictReporter: payload operations
// shed by the interacting-operation exclusion and by atomic execution
// discard, neither of which produces a client event.
func (n *Network) ConflictCounts() map[string]uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]uint64, 2)
	if n.excludedOps > 0 {
		out[systems.AbortConflictExcluded] = n.excludedOps
	}
	if n.execFailedOps > 0 {
		out[systems.AbortExecFailed] = n.execFailedOps
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// ChainHeight reports node 0's block height.
func (n *Network) ChainHeight() uint64 { return n.nodes[0].Ledger.Height() }
