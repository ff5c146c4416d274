// Package fabric simulates Hyperledger Fabric 2.2.1 as benchmarked in the
// paper: the execute-order-validate architecture with endorsing peers, an
// external Raft ordering service (3 orderers on servers 1-3, Table 4), block
// cutting governed by MaxMessageCount plus a batch timeout, and MVCC
// read-set validation at commit time.
//
// Behaviours reproduced from the paper:
//   - Every ordered transaction is appended to the chain even when MVCC
//     validation fails; only valid transactions reach the world state (§5.4).
//   - Blocks cut at MaxMessageCount ∈ {100, 500, 1000, 2000} or on timeout.
//   - Under extreme load (RL=1600) orderer ingress queues overflow and
//     transactions are silently lost ("malfunctioning orderers", §5.4).
//   - Clients receive confirmation only after the block is persisted on all
//     peers (end-to-end semantics, §4.5).
package fabric

import (
	"fmt"
	"sync"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/consensus/raft"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/mempool"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/statestore"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/trace"
	"github.com/coconut-bench/coconut/internal/wal"
)

// Config parameterizes a Fabric network.
type Config struct {
	// Peers is the number of endorsing/committing peers (paper: 4).
	Peers int
	// Orderers is the ordering-service size (paper: 3, Raft).
	Orderers int
	// MaxMessageCount cuts a block after this many envelopes (the paper's
	// MM parameter; default 500 per Fabric's configtx).
	MaxMessageCount int
	// BatchTimeout cuts a partial block after this delay (Fabric default
	// 2s; scaled down in benchmarks).
	BatchTimeout time.Duration
	// OrdererQueueDepth bounds each orderer's ingress queue; overflow drops
	// envelopes, reproducing the paper's lost transactions at RL=1600.
	OrdererQueueDepth int
	// Ordering selects the ordering backend (Raft default, or Kafka for
	// the paper's §5.4 comparison: slower per batch, but lossless).
	Ordering OrderingService
	// KafkaOverhead is the per-batch broker round-trip charged by the
	// Kafka backend. Default 5ms.
	KafkaOverhead time.Duration
	// EventLossAtPeers, when positive, reproduces the paper's §5.8.2
	// finding for large networks: with 16 and 32 peers "the nodes and the
	// orderers successfully process and finalise the transactions, but the
	// clients do not receive any confirmation". At or above this peer
	// count, blocks still commit on every peer but no client events fire.
	// The upstream root cause is unknown; this models the observation.
	EventLossAtPeers int
	// Transport carries all messages; nil creates a private zero-latency
	// fabric.
	Transport *network.Transport
	// Clock drives timers.
	Clock clock.Clock
	// WAL, when set, mounts a write-ahead log on every peer's commit gate
	// (see systems.DurableGate).
	WAL *wal.Options
	// Trace, when set, receives sampled spans: consensus rounds, WAL
	// appends/fsyncs, and (on a private transport) network hops.
	Trace *trace.Tracer
}

func (c *Config) fill() {
	if c.Peers <= 0 {
		c.Peers = 4
	}
	if c.Orderers <= 0 {
		c.Orderers = 3
	}
	if c.MaxMessageCount <= 0 {
		c.MaxMessageCount = 500
	}
	if c.BatchTimeout <= 0 {
		c.BatchTimeout = 2 * time.Second
	}
	if c.OrdererQueueDepth <= 0 {
		c.OrdererQueueDepth = 20000
	}
	if c.KafkaOverhead <= 0 {
		c.KafkaOverhead = 5 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = clock.New()
	}
}

// envelope is an endorsed transaction travelling to the ordering service.
type envelope struct {
	Tx    *chain.Transaction
	RWSet *statestore.RWSet
}

// cutBatch is the Raft payload: a deterministic block precursor.
type cutBatch struct {
	Envelopes []envelope
	CutAt     time.Time
	Cutter    string
}

// orderer couples an ordering-backend handle with a block cutter. With the
// Raft backend each orderer owns a Raft node; with Kafka they share the
// broker and the ingress pools are unbounded (Kafka never sheds load).
type orderer struct {
	id      string
	node    *raft.Node
	ingress *mempool.Pool[envelope]
}

// Network is a full Fabric deployment.
type Network struct {
	systems.ChainSet
	cfg Config

	peers    []*systems.Node
	orderers []*orderer
	broker   *kafkaBroker

	mu      sync.Mutex
	running bool
	stop    *clock.Gate
	done    *clock.Gate
}

var _ systems.Driver = (*Network)(nil)

// New assembles a Fabric network.
func New(cfg Config) *Network {
	cfg.fill()
	n := &Network{
		cfg:  cfg,
		stop: clock.NewGate(cfg.Clock),
		done: clock.NewGate(cfg.Clock),
	}
	n.ChainSet = systems.NewChainSet("fabric", systems.NodeSetConfig{
		System: systems.NameFabric, Size: cfg.Peers, Clock: cfg.Clock,
		Transport: cfg.Transport, WAL: cfg.WAL, Trace: cfg.Trace,
		MempoolDepth: n.ordererBacklog,
	})

	ordererIDs := make([]string, cfg.Orderers)
	for i := range ordererIDs {
		ordererIDs[i] = fmt.Sprintf("fabric-orderer-%d", i)
	}
	// The paper co-locates orderer i on server i (Table 4: orderers on
	// servers 1-3), so peer i's server owns orderer i's endpoint; peers
	// themselves commit via the ordering stream, not peer-to-peer links.
	for i := 0; i < cfg.Peers; i++ {
		p := &systems.Node{}
		var endpoints []string
		if i < cfg.Orderers {
			endpoints = []string{ordererIDs[i]}
		}
		n.AddNode(p, fmt.Sprintf("fabric-peer-%d", i), endpoints...)
		n.peers = append(n.peers, p)
	}
	if cfg.Ordering == OrderingKafka {
		n.broker = newKafkaBroker(cfg.Clock, cfg.KafkaOverhead, n.makeDecideFunc(0))
		for i := 0; i < cfg.Orderers; i++ {
			n.orderers = append(n.orderers, &orderer{
				id:      ordererIDs[i],
				ingress: mempool.NewUnbounded[envelope](),
			})
		}
		return n
	}
	for i := 0; i < cfg.Orderers; i++ {
		o := &orderer{
			id:      ordererIDs[i],
			ingress: mempool.NewBounded[envelope](cfg.OrdererQueueDepth),
		}
		o.node = raft.New(raft.Config{
			ID:        o.id,
			Peers:     ordererIDs,
			Transport: n.Transport,
			Clock:     cfg.Clock,
			OnDecide:  n.makeDecideFunc(i),
			Seed:      int64(i + 1),
		})
		n.orderers = append(n.orderers, o)
	}
	return n
}

// Name implements systems.Driver.
func (n *Network) Name() string { return systems.NameFabric }

// Start implements systems.Driver.
func (n *Network) Start() error {
	n.mu.Lock()
	if n.running {
		n.mu.Unlock()
		return nil
	}
	n.running = true
	n.mu.Unlock()

	if n.broker != nil {
		if err := n.broker.Start(); err != nil {
			return fmt.Errorf("start kafka broker: %w", err)
		}
	}
	for _, o := range n.orderers {
		if o.node == nil {
			continue
		}
		if err := o.node.Start(); err != nil {
			return fmt.Errorf("start orderer %s: %w", o.id, err)
		}
	}
	clock.Fork(n.cfg.Clock, 1)
	go n.cutLoop()
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
	if n.broker != nil {
		n.broker.Stop(h)
	}
	for _, o := range n.orderers {
		if o.node != nil {
			o.node.Stop(h)
		}
	}
	n.StopTransport(h)
}

// Submit implements systems.Driver: the entry peer endorses (executes) the
// transaction, then hands the envelope to an orderer. A full orderer queue
// silently drops the envelope — the client never hears back, matching the
// paper's lost transactions under RL=1600.
func (n *Network) Submit(entryNode int, tx *chain.Transaction) error {
	n.mu.Lock()
	if !n.running {
		n.mu.Unlock()
		return consensus.ErrNotRunning
	}
	n.mu.Unlock()

	p := n.peers[entryNode%len(n.peers)]
	if p.Gate.Down() {
		return systems.ErrNodeDown // the client's endorsement RPC fails
	}
	env := n.endorse(p, tx)
	// Execute-order-validate: endorsement is the execution phase, and it
	// happens before the transaction ever reaches the ordering queue.
	tx.Stages.Mark(chain.StageExecute, n.cfg.Clock.Now())
	o := n.orderers[entryNode%len(n.orderers)]
	// Silent drop on overflow: Fabric's client SDK gets a broadcast ACK
	// before ordering completes, so the loss is invisible end to end.
	if o.ingress.Add(env) == nil {
		tx.Stages.Mark(chain.StageSubmit, n.cfg.Clock.Now())
	}
	return nil
}

// endorse simulates the chaincode execution phase on the entry peer,
// producing a read-write set against its current world state.
func (n *Network) endorse(p *systems.Node, tx *chain.Transaction) envelope {
	rw := statestore.NewRWSet()
	recorder := &rwRecorder{rw: rw, state: p.State}
	for _, op := range tx.Ops {
		// Endorsement failures still produce an envelope: Fabric orders
		// whatever was endorsed and settles validity at commit.
		_ = iel.Execute(op, recorder)
	}
	return envelope{Tx: tx, RWSet: rw}
}

// rwRecorder adapts RWSet recording to iel.StateOps with
// read-your-own-writes semantics within one endorsement.
type rwRecorder struct {
	rw    *statestore.RWSet
	state *statestore.KVStore
}

var _ iel.StateOps = (*rwRecorder)(nil)

func (r *rwRecorder) Get(key string) (string, bool) {
	if v, ok := r.rw.Writes[key]; ok {
		return v, true
	}
	return r.rw.RecordRead(key, r.state)
}

func (r *rwRecorder) Put(key, value string) { r.rw.RecordWrite(key, value) }

// cutLoop drains orderer ingress queues into blocks, honouring
// MaxMessageCount and BatchTimeout, and submits each cut batch to Raft.
func (n *Network) cutLoop() {
	h := clock.RegisterForked(n.cfg.Clock, "fabric/cutter")
	defer h.Close()
	defer n.done.Close()
	// Poll at a fraction of the batch timeout for responsive cutting, but
	// never slower than 10ms so MaxMessageCount cuts stay prompt even with
	// a long batch timeout.
	interval := n.cfg.BatchTimeout / 8
	if interval <= 0 || interval > 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := n.cfg.Clock.NewTicker(interval)
	defer tick.Stop()
	lastCut := n.cfg.Clock.Now()

	for {
		switch i, _, _ := h.Await(n.stop, tick); i {
		case 0:
			return
		case 1:
			timedOut := n.cfg.Clock.Since(lastCut) >= n.cfg.BatchTimeout
			for _, o := range n.orderers {
				for o.ingress.Len() >= n.cfg.MaxMessageCount {
					// A failed cut (no Raft leader yet) puts the envelopes
					// back; retrying before the next tick would spin without
					// ever yielding, which under the virtual clock starves
					// the very election the retry is waiting on.
					if !n.cut(h, o, o.ingress.Take(n.cfg.MaxMessageCount)) {
						break
					}
					lastCut = n.cfg.Clock.Now()
				}
				if timedOut {
					if envs := o.ingress.Take(n.cfg.MaxMessageCount); len(envs) > 0 {
						n.cut(h, o, envs)
						lastCut = n.cfg.Clock.Now()
					}
				}
			}
			if timedOut {
				lastCut = n.cfg.Clock.Now()
			}
		}
	}
}

// cut submits one batch to the ordering service, reporting whether it was
// accepted.
func (n *Network) cut(h clock.Handle, o *orderer, envs []envelope) bool {
	batch := cutBatch{Envelopes: envs, CutAt: n.cfg.Clock.Now(), Cutter: o.id}
	var err error
	if n.broker != nil {
		err = n.broker.Submit(h, batch)
	} else {
		// raft.Submit forwards to the leader when this orderer is a
		// follower. Before an election completes there is no leader to
		// forward to; put the envelopes back so the next tick retries.
		err = o.node.Submit(h, batch)
	}
	if err != nil {
		for _, env := range envs {
			_ = o.ingress.Add(env)
		}
		return false
	}
	for _, env := range envs {
		env.Tx.Stages.Mark(chain.StageQueue, batch.CutAt)
	}
	return true
}

// makeDecideFunc returns the commit pipeline for orderer i. Only orderer 0's
// decisions drive peer commits — decisions are identical on every orderer,
// so one distribution stream suffices and avoids triple delivery.
func (n *Network) makeDecideFunc(i int) consensus.DecideFunc {
	if i != 0 {
		return nil
	}
	return func(h clock.Handle, d consensus.Decision) {
		batch, ok := d.Payload.(cutBatch)
		if !ok {
			return
		}
		n.commitBlock(h, d.Seq, batch)
	}
}

// commitBlock validates and applies one decided batch on every peer,
// reporting per-transaction commits to the hub. A crashed peer's gate
// buffers its share of the work until RestartNode replays it.
func (n *Network) commitBlock(h clock.Handle, seq uint64, batch cutBatch) {
	decided := n.cfg.Clock.Now()
	// Consensus rounds are sampled on the block number: one span per
	// sampled round, emitted at the single global commit site.
	if tr := n.cfg.Trace; tr.Sampled(seq) {
		tr.Add(trace.Span{Name: "round", Cat: "consensus", Proc: systems.NameFabric,
			Lane: "consensus", Start: batch.CutAt.UnixNano(), End: decided.UnixNano(), Block: seq})
	}
	for _, env := range batch.Envelopes {
		env.Tx.Stages.Mark(chain.StageConsensus, decided)
	}
	for _, p := range n.peers {
		p := p
		p.Gate.Commit(h, len(batch.Envelopes), func() { n.commitOnPeer(p, batch) })
	}
}

// commitOnPeer applies one decided batch on a single peer.
func (n *Network) commitOnPeer(p *systems.Node, batch cutBatch) {
	txs := make([]*chain.Transaction, len(batch.Envelopes))
	for i, env := range batch.Envelopes {
		txs[i] = env.Tx
	}
	blk := chain.NewBlock(p.Ledger.Head(), batch.Cutter, batch.CutAt, txs)
	if err := p.Ledger.Append(blk); err != nil {
		return // stale duplicate
	}
	eventsLost := n.cfg.EventLossAtPeers > 0 && n.cfg.Peers >= n.cfg.EventLossAtPeers
	now := n.cfg.Clock.Now()
	for txNum, env := range batch.Envelopes {
		validErr := env.RWSet.Validate(p.State)
		if validErr == nil {
			env.RWSet.Commit(p.State, statestore.Version{BlockNum: blk.Number, TxNum: txNum})
		}
		// First-write-wins: the fastest peer's validation instant counts,
		// and a crashed peer's gate-buffered replay cannot overwrite it.
		env.Tx.Stages.Mark(chain.StageValidate, now)
		if eventsLost {
			continue // committed on-chain, but the client never hears
		}
		ev := systems.Event{
			TxID:      env.Tx.ID,
			Client:    env.Tx.Client,
			Committed: true, // appended to the chain regardless
			ValidOK:   validErr == nil,
			OpCount:   env.Tx.OpCount(),
			BlockNum:  blk.Number,
			Stages:    &env.Tx.Stages,
		}
		if validErr != nil {
			ev.Reason = validErr.Error()
			ev.Code = systems.ClassifyAbort(validErr)
		}
		p.HubNode.Committed(ev, now)
	}
}

// PeerHeight reports peer 0's chain height (for tests and examples).
func (n *Network) PeerHeight() uint64 { return n.peers[0].Ledger.Height() }

// ordererBacklog is the envelopes waiting in the orderers' ingress queues.
func (n *Network) ordererBacklog() int {
	depth := 0
	for _, o := range n.orderers {
		depth += o.ingress.Len()
	}
	return depth
}

// OrdererStats reports admitted/rejected envelope counts across orderers.
func (n *Network) OrdererStats() (admitted, rejected uint64) {
	for _, o := range n.orderers {
		a, r := o.ingress.Stats()
		admitted += a
		rejected += r
	}
	return admitted, rejected
}
