package systems

import (
	"sync"
	"time"

	"github.com/coconut-bench/coconut/internal/crypto"
)

// emittedRetention bounds the tombstone set that suppresses late
// duplicate reports after a transaction has emitted. Older tombstones are
// pruned FIFO, so hub memory stays constant over arbitrarily long runs
// instead of growing with every transaction.
const emittedRetention = 1 << 19

// Hub aggregates per-node commit notifications and fires the end-to-end
// finalization event once every node in the network has persisted a
// transaction. It also routes events to the submitting client's
// subscription, mirroring COCONUT's event-based collection (§3).
//
// One mutex guards the pending set and the bounded emitted-tombstone
// ring; under the virtual clock one actor runs at a time, so it never
// contends. Node identities are interned once into dense indices so
// per-transaction tracking is a bitset rather than a map of node-ID
// strings.
type Hub struct {
	nodes     int
	retention int

	mu      sync.Mutex
	pending map[crypto.Hash]*pendingTx
	// emitted holds tombstones for recently finalized transactions so late
	// duplicate node reports do not re-open them; emitQ prunes it FIFO.
	emitted  map[crypto.Hash]struct{}
	emitQ    []crypto.Hash
	emitHead int
	emittedN int // lifetime count; never pruned

	subsMu sync.RWMutex
	subs   map[string]EventFunc

	nodeMu  sync.RWMutex
	nodeIdx map[string]*HubNode
}

// pendingTx tracks which nodes persisted one transaction, as a bitset over
// interned node indices.
type pendingTx struct {
	event Event
	seen  []uint64
	count int
}

func (p *pendingTx) mark(idx int) bool {
	word, bit := idx/64, uint(idx%64)
	for word >= len(p.seen) {
		p.seen = append(p.seen, 0)
	}
	if p.seen[word]&(1<<bit) != 0 {
		return false
	}
	p.seen[word] |= 1 << bit
	p.count++
	return true
}

// NewHub creates a hub for a network of the given node count.
func NewHub(nodes int) *Hub {
	return &Hub{
		nodes:     nodes,
		retention: emittedRetention,
		pending:   make(map[crypto.Hash]*pendingTx),
		emitted:   make(map[crypto.Hash]struct{}),
		subs:      make(map[string]EventFunc),
		nodeIdx:   make(map[string]*HubNode),
	}
}

// Subscribe registers fn as the listener for events whose Client matches.
func (h *Hub) Subscribe(client string, fn EventFunc) {
	h.subsMu.Lock()
	defer h.subsMu.Unlock()
	h.subs[client] = fn
}

// Node interns a node identity and returns its commit handle. Drivers
// resolve the handle once at provisioning time so the per-commit hot path
// never touches the node-ID string map.
func (h *Hub) Node(id string) *HubNode {
	h.nodeMu.RLock()
	n, ok := h.nodeIdx[id]
	h.nodeMu.RUnlock()
	if ok {
		return n
	}
	h.nodeMu.Lock()
	defer h.nodeMu.Unlock()
	if n, ok := h.nodeIdx[id]; ok {
		return n
	}
	n = &HubNode{hub: h, idx: len(h.nodeIdx), id: id}
	h.nodeIdx[id] = n
	return n
}

// NodeCommitted records that one node persisted the transaction described
// by ev. When all nodes have reported, the event fires to the client's
// subscription with FinalizedAt set to the last node's commit time.
// Duplicate reports from the same node are ignored.
//
// Drivers on the hot path should prefer a pre-resolved Node(...).Committed
// handle; this wrapper interns the node ID on every call.
func (h *Hub) NodeCommitted(nodeID string, ev Event, at time.Time) {
	h.Node(nodeID).Committed(ev, at)
}

// HubNode is one node's commit handle, bound to a dense node index.
type HubNode struct {
	hub *Hub
	idx int
	id  string
}

// ID returns the node identity the handle was interned for.
func (n *HubNode) ID() string { return n.id }

// Committed reports that this node persisted the transaction described by
// ev; semantics match Hub.NodeCommitted.
func (n *HubNode) Committed(ev Event, at time.Time) {
	h := n.hub

	h.mu.Lock()
	if _, done := h.emitted[ev.TxID]; done {
		h.mu.Unlock()
		return
	}
	p, ok := h.pending[ev.TxID]
	if !ok {
		p = &pendingTx{event: ev, seen: make([]uint64, (h.nodes+63)/64)}
		h.pending[ev.TxID] = p
	}
	if !p.mark(n.idx) || p.count < h.nodes {
		h.mu.Unlock()
		return
	}
	// Final node: emit exactly once. The transition happens under the hub
	// lock, the callback runs outside every lock.
	delete(h.pending, ev.TxID)
	h.tombstone(ev.TxID)
	h.emittedN++
	h.mu.Unlock()

	out := p.event
	out.FinalizedAt = at
	h.deliver(out)
}

// tombstone records an emitted transaction for duplicate suppression,
// pruning the oldest entry once the retention window is full. Caller holds
// h.mu.
func (h *Hub) tombstone(id crypto.Hash) {
	h.emitted[id] = struct{}{}
	if len(h.emitQ) < h.retention {
		h.emitQ = append(h.emitQ, id)
		return
	}
	delete(h.emitted, h.emitQ[h.emitHead])
	h.emitQ[h.emitHead] = id
	h.emitHead = (h.emitHead + 1) % h.retention
}

func (h *Hub) deliver(ev Event) {
	h.subsMu.RLock()
	fn := h.subs[ev.Client]
	h.subsMu.RUnlock()
	if fn != nil {
		fn(ev)
	}
}

// EmitDirect fires an event immediately, bypassing per-node tracking. Used
// for client-visible rejections that never reach the chain.
func (h *Hub) EmitDirect(ev Event, at time.Time) {
	ev.FinalizedAt = at
	h.deliver(ev)
}

// PendingCount reports transactions persisted on some but not all nodes.
func (h *Hub) PendingCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.pending)
}

// EmittedCount reports fully finalized transactions over the hub's
// lifetime. Unlike the tombstone set, the counter is never pruned.
func (h *Hub) EmittedCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.emittedN
}

// TombstoneCount reports how many duplicate-suppression tombstones are
// currently retained; it is bounded by the retention window regardless of
// run length.
func (h *Hub) TombstoneCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.emitted)
}
