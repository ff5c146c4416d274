package systems

import (
	"fmt"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/statestore"
	"github.com/coconut-bench/coconut/internal/trace"
	"github.com/coconut-bench/coconut/internal/wal"
)

// NodeSet is the node plane every driver embeds: the commit hub, the
// message transport, and one Node record per network member. It implements
// the harness-facing hooks once — crash and restart, WAL access, recovery
// and queue telemetry, fault-injection endpoints — so all seven systems are
// crashed, recovered and instrumented identically by construction. Every
// method here is a cold path (one call per fault event, timeline window or
// repetition); the commit hot path uses the Node fields directly.
type NodeSet struct {
	// Hub aggregates per-node commit reports into end-to-end events.
	Hub *Hub
	// Transport carries the nodes' messages; nil for a system without a
	// message fabric (Corda's flows are direct calls).
	Transport *network.Transport

	system       string
	clk          clock.Clock
	walOpts      *wal.Options
	tracer       *trace.Tracer
	ownTransport bool
	mempoolDepth func() int
	nodes        []*Node
}

// NodeSetConfig describes a node plane. It carries the driver
// configuration the plane needs; it is not a driver option of its own.
type NodeSetConfig struct {
	// System is the display name; it labels the nodes' WAL trace rows.
	System string
	// Size is the network size the hub waits for before finalizing.
	Size int
	// Clock drives the WAL's modeled latencies.
	Clock clock.Clock
	// Transport is a shared message fabric, or nil (see NewChainSet).
	Transport *network.Transport
	// WAL, when set, mounts a write-ahead log on every node's gate.
	WAL *wal.Options
	// Trace receives the gates' WAL spans and, on a private transport,
	// its network hops.
	Trace *trace.Tracer
	// MempoolDepth reports the system's pending-work backlog summed across
	// its admission queues, for QueueSnapshot.
	MempoolDepth func() int
}

// NewNodeSet builds an empty node plane; AddNode populates it.
func NewNodeSet(cfg NodeSetConfig) NodeSet {
	return NodeSet{
		Hub:          NewHub(cfg.Size),
		Transport:    cfg.Transport,
		system:       cfg.System,
		clk:          cfg.Clock,
		walOpts:      cfg.WAL,
		tracer:       cfg.Trace,
		mempoolDepth: cfg.MempoolDepth,
	}
}

// Node is one network member's share of the plane. Drivers embed it in
// their node type and drive its fields directly on the commit path.
type Node struct {
	// ID is the node identity: hub handle, WAL name and trace lane.
	ID string
	// HubNode reports this node's commits to the hub.
	HubNode *HubNode
	// Gate is the node's crashable, optionally durable commit plane.
	Gate DurableGate
	// Ledger and State are the node's chain and KV world state (nil for
	// Corda, whose nodes keep a vault instead).
	Ledger *chain.Ledger
	State  *statestore.KVStore

	endpoints []string
}

// AddNode registers nd under id — interning its hub handle and, when
// durability is on, mounting its WAL — and records the transport endpoints
// the node owns for link-level fault injection. Nodes are indexed in the
// order they are added.
func (s *NodeSet) AddNode(nd *Node, id string, endpoints ...string) {
	nd.ID = id
	nd.HubNode = s.Hub.Node(id)
	nd.endpoints = endpoints
	if s.walOpts != nil {
		nd.Gate.Enable(s.clk, wal.New(id, *s.walOpts, s.clk))
		nd.Gate.Trace(s.tracer, s.system, id)
	}
	s.nodes = append(s.nodes, nd)
}

// StopTransport stops the transport, waiting on the caller's handle h, if
// the set created it; a shared transport belongs to its creator.
func (s *NodeSet) StopTransport(h clock.Handle) {
	if s.ownTransport {
		s.Transport.Stop(h)
	}
}

// NodeCount implements Driver.
func (s *NodeSet) NodeCount() int { return len(s.nodes) }

// Subscribe implements Driver.
func (s *NodeSet) Subscribe(client string, fn EventFunc) { s.Hub.Subscribe(client, fn) }

func (s *NodeSet) node(i int) (*Node, error) {
	if i < 0 || i >= len(s.nodes) {
		return nil, fmt.Errorf("%w: %s node %d of %d", ErrNodeDown, s.system, i, len(s.nodes))
	}
	return s.nodes[i], nil
}

// CrashNode implements Driver: node i's gate closes, so its entry point
// rejects submissions and its commit work buffers until restart.
func (s *NodeSet) CrashNode(i int) error {
	nd, err := s.node(i)
	if err != nil {
		return err
	}
	nd.Gate.Crash()
	return nil
}

// RestartNode implements Driver: node i recovers through its gate —
// replaying its log, then the commits it missed in decision order (the
// systems' catch-up: deliver service, chain sync, state sync, resync,
// message-queue redelivery) — and resumes. The recovery cost is charged on
// the caller's handle h.
func (s *NodeSet) RestartNode(h clock.Handle, i int) error {
	nd, err := s.node(i)
	if err != nil {
		return err
	}
	nd.Gate.Restart(h)
	return nil
}

// NodeWAL implements faults.WALAccessor: node i's write-ahead log, or nil
// when durability is disabled or i is out of range.
func (s *NodeSet) NodeWAL(i int) *wal.Log {
	nd, err := s.node(i)
	if err != nil {
		return nil
	}
	return nd.Gate.WAL()
}

// RecoveryStats implements RecoveryReporter: the durability counters
// summed across nodes.
func (s *NodeSet) RecoveryStats() (RecoveryStats, bool) {
	var rs RecoveryStats
	for _, nd := range s.nodes {
		rs = rs.Add(nd.Gate.Stats())
	}
	return rs, s.walOpts != nil
}

// FaultTransport implements faults.TransportAccessor: the shared fabric,
// or nil when the system has none.
func (s *NodeSet) FaultTransport() *network.Transport { return s.Transport }

// NodeEndpoints implements faults.TransportAccessor: the transport
// endpoints node i owns (nil when it owns none or i is out of range).
func (s *NodeSet) NodeEndpoints(i int) []string {
	nd, err := s.node(i)
	if err != nil {
		return nil
	}
	return nd.endpoints
}

// QueueSnapshot implements QueueReporter: hub in-flight, the system's
// admission backlog, the gates' backlog and WAL occupancy, and the
// transport's undelivered messages.
func (s *NodeSet) QueueSnapshot() QueueStats {
	qs := QueueStats{HubInflight: s.Hub.PendingCount()}
	if s.Transport != nil {
		qs.NetPending = s.Transport.PendingCount()
	}
	if s.mempoolDepth != nil {
		qs.MempoolDepth = s.mempoolDepth()
	}
	for _, nd := range s.nodes {
		qs.GateBacklog += nd.Gate.Backlog()
		if log := nd.Gate.WAL(); log != nil {
			qs.WALLiveBytes += int64(log.Stats().LiveBytes)
			qs.WALUnsynced += log.UnsyncedRecords()
		}
	}
	return qs
}

// ChainSet is the NodeSet of a block-based system: every node keeps a
// hash-chained ledger and a KV world state, and the nodes talk over a
// message transport.
type ChainSet struct {
	NodeSet
	chainID string
}

// NewChainSet builds the plane of a block-based system whose ledgers start
// from chainID's genesis block. A nil cfg.Transport creates a private
// zero-latency fabric, owned (and stopped) by the set.
func NewChainSet(chainID string, cfg NodeSetConfig) ChainSet {
	s := ChainSet{NodeSet: NewNodeSet(cfg), chainID: chainID}
	if s.Transport == nil {
		s.Transport = network.NewTransport(cfg.Clock, nil)
		s.ownTransport = true
		if cfg.Trace != nil {
			s.Transport.SetTracer(cfg.Trace, cfg.System)
		}
	}
	return s
}

// AddNode is NodeSet.AddNode plus a fresh ledger and world state.
func (s *ChainSet) AddNode(nd *Node, id string, endpoints ...string) {
	nd.Ledger = chain.NewLedger(s.chainID)
	nd.State = statestore.NewKVStore()
	s.NodeSet.AddNode(nd, id, endpoints...)
}

// LedgerHead returns node i's chain head hash (for convergence checks).
func (s *ChainSet) LedgerHead(i int) crypto.Hash {
	return s.nodes[i%len(s.nodes)].Ledger.Head().Hash
}

// WorldState exposes node i's world state for verification.
func (s *ChainSet) WorldState(i int) *statestore.KVStore {
	return s.nodes[i%len(s.nodes)].State
}

// Preload implements Preloader: the operations are applied directly to
// every node's world state at version {0, op index} — the YCSB load-phase
// analogue — so contention workloads start from a materialized shared key
// space, and the identical versions keep later MVCC validation consistent.
func (s *ChainSet) Preload(ops []chain.Operation) error {
	for _, nd := range s.nodes {
		for i, op := range ops {
			if err := iel.Execute(op, &KVOps{State: nd.State, Ver: statestore.Version{TxNum: i}}); err != nil {
				return fmt.Errorf("%s preload op %d: %w", s.chainID, i, err)
			}
		}
	}
	return nil
}

// KVOps adapts a KVStore to iel.StateOps, stamping every write with Ver.
type KVOps struct {
	State *statestore.KVStore
	Ver   statestore.Version
}

var _ iel.StateOps = (*KVOps)(nil)

// Get implements iel.StateOps.
func (a *KVOps) Get(key string) (string, bool) {
	v, ok := a.State.Get(key)
	return v.Value, ok
}

// Put implements iel.StateOps.
func (a *KVOps) Put(key, value string) { a.State.Set(key, value, a.Ver) }

// Overlay is an iel.StateOps that reads through to a base store but keeps
// its writes local: a dry run of atomic work against a node's state.
type Overlay struct {
	base   *statestore.KVStore
	writes map[string]string
}

var _ iel.StateOps = (*Overlay)(nil)

// NewOverlay starts a dry run over base.
func NewOverlay(base *statestore.KVStore) *Overlay {
	return &Overlay{base: base, writes: make(map[string]string)}
}

// Get implements iel.StateOps.
func (o *Overlay) Get(key string) (string, bool) {
	if v, ok := o.writes[key]; ok {
		return v, true
	}
	v, ok := o.base.Get(key)
	return v.Value, ok
}

// Put implements iel.StateOps.
func (o *Overlay) Put(key, value string) { o.writes[key] = value }
