// Package dpos implements Delegated Proof-of-Stake block production as used
// by BitShares (Graphene): a fixed witness schedule where the scheduled
// witness produces, signs, and broadcasts one block per block_interval slot,
// and a new shuffled round starts when every witness has produced once.
//
// Unlike the voting protocols, DPoS has no per-block agreement phase — the
// schedule itself is the arbiter. This is why the paper finds BitShares'
// throughput insensitive to cluster size (§5.8.2): adding witnesses only
// stretches the schedule, it adds no quorum communication.
package dpos

import (
	"math/rand"
	"sync"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/network"
)

// ProducedBlock is the decision payload delivered by the engine: the items
// the scheduled witness packed into its slot.
type ProducedBlock struct {
	// Slot is the global slot number of the block.
	Slot uint64
	// Witness produced the block.
	Witness string
	// Items are the payloads (transactions) included, in admission order.
	Items []any
}

// Config parameterizes a witness node.
type Config struct {
	// ID is this witness's transport endpoint name.
	ID string
	// Witnesses is the full witness schedule. A node whose ID is absent
	// from the schedule acts as an observer: it receives blocks but never
	// produces (BitShares runs 4 nodes with n-1 = 3 witnesses, Table 4).
	Witnesses []string
	// Observers lists non-witness nodes that must still receive produced
	// blocks.
	Observers []string
	// Transport carries gossip and block messages.
	Transport *network.Transport
	// Clock drives slot timing.
	Clock clock.Clock
	// OnDecide receives produced blocks in slot order.
	OnDecide consensus.DecideFunc
	// BlockInterval is the slot length (the paper's block_interval
	// parameter, default 1s there; tests use milliseconds).
	BlockInterval time.Duration
	// MaxBlockItems bounds the number of items per block; 0 = unbounded.
	MaxBlockItems int
	// PackFilter, when set, screens candidate items at production time.
	// Excluded items are dropped permanently — BitShares uses this to keep
	// interacting operations out of blocks (paper §5.3).
	PackFilter func(items []any) (included, excluded []any)
	// ShuffleSeed randomizes the per-round witness order deterministically.
	ShuffleSeed int64
}

func (c *Config) fill() {
	if c.Clock == nil {
		c.Clock = clock.New()
	}
	if c.BlockInterval <= 0 {
		c.BlockInterval = time.Second
	}
}

// Wire messages.
type (
	gossipMsg struct {
		Digest  crypto.Hash
		Payload any
	}
	blockMsg struct {
		Block ProducedBlock
	}
)

// Engine is one DPoS witness.
type Engine struct {
	cfg Config

	mu       sync.Mutex
	slot     uint64 // next slot this node will consider
	seq      uint64
	nonce    uint64
	pending  []gossipMsg
	seen     map[crypto.Hash]bool
	running  bool
	produced uint64 // blocks produced by this witness

	events *clock.Mailbox[network.Message]
	stop   *clock.Gate
	done   *clock.Gate
}

var _ consensus.Engine = (*Engine)(nil)

// New constructs a witness; call Start to begin the schedule.
func New(cfg Config) *Engine {
	cfg.fill()
	return &Engine{
		cfg:    cfg,
		seen:   make(map[crypto.Hash]bool),
		events: clock.NewMailbox[network.Message](cfg.Clock, 8192),
		stop:   clock.NewGate(cfg.Clock),
		done:   clock.NewGate(cfg.Clock),
	}
}

// Start implements consensus.Engine.
func (e *Engine) Start() error {
	e.mu.Lock()
	if e.running {
		e.mu.Unlock()
		return nil
	}
	e.running = true
	e.mu.Unlock()

	e.cfg.Transport.Register(e.cfg.ID, func(h clock.Handle, m network.Message) {
		e.events.Send(h, m, e.stop)
	})
	clock.Fork(e.cfg.Clock, 1)
	go e.run()
	return nil
}

// Stop implements consensus.Engine.
func (e *Engine) Stop(h clock.Handle) {
	e.mu.Lock()
	if !e.running {
		e.mu.Unlock()
		return
	}
	e.running = false
	e.mu.Unlock()
	e.stop.Close()
	h.Await(e.done)
	e.cfg.Transport.Unregister(e.cfg.ID)
}

// Submit implements consensus.Engine: the payload is gossiped to every
// witness and included by whichever produces the next block. Gossip never
// decides or parks, so the handle is unused.
func (e *Engine) Submit(_ clock.Handle, payload any) error {
	e.mu.Lock()
	if !e.running {
		e.mu.Unlock()
		return consensus.ErrNotRunning
	}
	e.nonce++
	g := gossipMsg{Digest: crypto.TxID(e.cfg.ID, e.nonce, nil), Payload: payload}
	e.seen[g.Digest] = true
	e.pending = append(e.pending, g)
	e.mu.Unlock()

	for _, w := range e.cfg.Witnesses {
		if w == e.cfg.ID {
			continue
		}
		_ = e.cfg.Transport.Send(e.cfg.ID, w, "dpos.gossip", g)
	}
	return nil
}

// Produced reports how many blocks this witness has produced.
func (e *Engine) Produced() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.produced
}

// PendingCount returns the local gossip backlog.
func (e *Engine) PendingCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pending)
}

// witnessForSlot returns the scheduled witness. The order is shuffled every
// round (a round = one pass over all witnesses) per Graphene's
// shuffled-witness schedule.
func (e *Engine) witnessForSlot(slot uint64) string {
	n := uint64(len(e.cfg.Witnesses))
	round := slot / n
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(e.cfg.ShuffleSeed + int64(round)))
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return e.cfg.Witnesses[idx[slot%n]]
}

func (e *Engine) run() {
	h := clock.RegisterForked(e.cfg.Clock, "dpos/"+e.cfg.ID)
	defer h.Close()
	defer e.done.Close()
	tick := e.cfg.Clock.NewTicker(e.cfg.BlockInterval)
	defer tick.Stop()
	for {
		switch i, val, _ := h.Await(e.stop, e.events, tick); i {
		case 0:
			return
		case 1:
			e.handle(h, val.(network.Message))
		case 2:
			e.maybeProduce(h)
		}
	}
}

func (e *Engine) handle(h clock.Handle, m network.Message) {
	switch p := m.Payload.(type) {
	case gossipMsg:
		e.mu.Lock()
		if !e.seen[p.Digest] {
			e.seen[p.Digest] = true
			e.pending = append(e.pending, p)
		}
		e.mu.Unlock()
	case blockMsg:
		e.acceptBlock(h, p.Block)
	}
}

// maybeProduce creates and broadcasts a block when this witness owns the
// current slot.
func (e *Engine) maybeProduce(h clock.Handle) {
	e.mu.Lock()
	slot := e.slot
	if e.witnessForSlot(slot) != e.cfg.ID {
		// Not our slot. Slot consumption happens on block receipt; if the
		// scheduled witness is dead the slot is skipped after one interval.
		e.slot++
		e.mu.Unlock()
		return
	}
	n := len(e.pending)
	if e.cfg.MaxBlockItems > 0 && n > e.cfg.MaxBlockItems {
		n = e.cfg.MaxBlockItems
	}
	items := make([]any, n)
	for i := 0; i < n; i++ {
		items[i] = e.pending[i].Payload
	}
	e.pending = e.pending[n:]
	if e.cfg.PackFilter != nil {
		items, _ = e.cfg.PackFilter(items)
	}
	blk := ProducedBlock{Slot: slot, Witness: e.cfg.ID, Items: items}
	e.slot++
	e.produced++
	e.seq++
	d := consensus.Decision{
		Seq:       e.seq,
		Payload:   blk,
		Proposer:  e.cfg.ID,
		DecidedAt: e.cfg.Clock.Now(),
	}
	cb := e.cfg.OnDecide
	e.mu.Unlock()

	for _, w := range e.cfg.Witnesses {
		if w == e.cfg.ID {
			continue
		}
		_ = e.cfg.Transport.Send(e.cfg.ID, w, "dpos.block", blockMsg{Block: blk})
	}
	for _, o := range e.cfg.Observers {
		if o == e.cfg.ID {
			continue
		}
		_ = e.cfg.Transport.Send(e.cfg.ID, o, "dpos.block", blockMsg{Block: blk})
	}
	if cb != nil {
		cb(h, d)
	}
}

// acceptBlock applies a block produced by another witness.
func (e *Engine) acceptBlock(h clock.Handle, blk ProducedBlock) {
	e.mu.Lock()
	if !e.running {
		e.mu.Unlock()
		return
	}
	// Remove included items from the local backlog. Items travel as the
	// gossiped payload values, so equality of the payload identifies them.
	if len(blk.Items) > 0 {
		kept := e.pending[:0]
		for _, g := range e.pending {
			drop := false
			for _, it := range blk.Items {
				if g.Payload == it {
					drop = true
					break
				}
			}
			if !drop {
				kept = append(kept, g)
			}
		}
		e.pending = kept
	}
	if blk.Slot >= e.slot {
		e.slot = blk.Slot + 1
	}
	e.seq++
	d := consensus.Decision{
		Seq:       e.seq,
		Payload:   blk,
		Proposer:  blk.Witness,
		DecidedAt: e.cfg.Clock.Now(),
	}
	cb := e.cfg.OnDecide
	e.mu.Unlock()
	if cb != nil {
		cb(h, d)
	}
}
