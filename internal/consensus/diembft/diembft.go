// Package diembft implements the DiemBFT v4 consensus protocol (Diem's
// HotStuff derivative) in the simplified chained form: a rotating leader per
// round proposes a block carrying a quorum certificate (QC) for its parent;
// validators vote to the next round's leader; a block commits under the
// two-chain rule once a QC forms on a contiguous-round child.
//
// A pacemaker advances rounds on timeout quorums so the chain keeps moving
// past silent leaders. When a leader has no payload queued it proposes an
// empty block — Diem does the same, which is why the paper observes Diem
// blocks that never saturate (§5.7).
package diembft

import (
	"fmt"
	"sync"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/network"
)

// Config parameterizes a DiemBFT validator.
type Config struct {
	// ID is this validator's transport endpoint name.
	ID string
	// Validators lists the full validator set, including this node.
	Validators []string
	// Transport carries protocol messages.
	Transport *network.Transport
	// Clock drives the pacemaker.
	Clock clock.Clock
	// OnDecide receives committed non-empty payloads in commit order.
	OnDecide consensus.DecideFunc
	// RoundInterval is the cadence at which the leader proposes. Default
	// 20ms.
	RoundInterval time.Duration
	// RoundTimeout is the pacemaker's per-round timeout. Default
	// 10x RoundInterval.
	RoundTimeout time.Duration
	// PayloadSource, when set, is consulted by the round leader whenever
	// its local Submit backlog is empty; returning nil proposes an empty
	// block. Systems use it to pull a freshly formed block (e.g. up to
	// max_block_size transactions) at proposal time.
	PayloadSource func() any
}

func (c *Config) fill() {
	if c.Clock == nil {
		c.Clock = clock.New()
	}
	if c.RoundInterval <= 0 {
		c.RoundInterval = 20 * time.Millisecond
	}
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = 10 * c.RoundInterval
	}
}

// qc is a quorum certificate over a block at a round.
type qc struct {
	BlockID crypto.Hash
	Round   uint64
}

// blockNode is a proposal in the block tree.
type blockNode struct {
	ID       crypto.Hash
	Round    uint64
	ParentID crypto.Hash
	Payload  any // nil for empty blocks
	Proposer string
}

// Wire messages.
type (
	proposalMsg struct {
		Block     blockNode
		JustifyQC qc
	}
	voteMsg struct {
		BlockID crypto.Hash
		Round   uint64
		Voter   string
	}
	timeoutMsg struct {
		Round uint64
	}
	qcMsg struct {
		QC qc
	}
)

// Engine is one DiemBFT validator.
type Engine struct {
	cfg Config

	mu        sync.Mutex
	round     uint64
	highQC    qc
	blocks    map[crypto.Hash]*blockNode
	votes     map[crypto.Hash]map[string]bool
	timeouts  map[uint64]map[string]bool
	committed map[crypto.Hash]bool
	pending   []any
	seq       uint64
	voted     map[uint64]bool // rounds this node voted in
	running   bool

	events *clock.Mailbox[network.Message]
	stop   *clock.Gate
	done   *clock.Gate
}

var _ consensus.Engine = (*Engine)(nil)

// New constructs a validator; call Start to join.
func New(cfg Config) *Engine {
	cfg.fill()
	genesis := &blockNode{ID: crypto.SumString("diem-genesis"), Round: 0}
	e := &Engine{
		cfg:       cfg,
		round:     1,
		highQC:    qc{BlockID: genesis.ID, Round: 0},
		blocks:    map[crypto.Hash]*blockNode{genesis.ID: genesis},
		votes:     make(map[crypto.Hash]map[string]bool),
		timeouts:  make(map[uint64]map[string]bool),
		committed: make(map[crypto.Hash]bool),
		voted:     make(map[uint64]bool),
		events:    clock.NewMailbox[network.Message](cfg.Clock, 8192),
		stop:      clock.NewGate(cfg.Clock),
		done:      clock.NewGate(cfg.Clock),
	}
	return e
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

// Submit implements consensus.Engine. Payloads queue locally and are also
// forwarded to the next few leaders so whichever wins the round can include
// them. Queueing never decides or parks, so the handle is unused.
func (e *Engine) Submit(_ clock.Handle, payload any) error {
	e.mu.Lock()
	if !e.running {
		e.mu.Unlock()
		return consensus.ErrNotRunning
	}
	e.pending = append(e.pending, payload)
	e.mu.Unlock()
	return nil
}

// Round returns the validator's current round.
func (e *Engine) Round() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.round
}

// PendingCount returns the local payload backlog.
func (e *Engine) PendingCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pending)
}

func (e *Engine) leaderOf(round uint64) string {
	return e.cfg.Validators[round%uint64(len(e.cfg.Validators))]
}

// blockID derives a proposal's identifier on one pooled hasher. The byte
// stream matches the historical Sum(parent, round, proposer,
// SumString("%v"-payload)) concatenation.
func blockID(parent crypto.Hash, round uint64, proposer string, payload any) crypto.Hash {
	h := crypto.AcquireHasher()
	fmt.Fprintf(h, "%v", payload)
	payloadDigest := h.Sum()
	h.Reset()
	h.WriteHash(parent)
	h.WriteUint64(round)
	h.WriteString(proposer)
	h.WriteHash(payloadDigest)
	id := h.Sum()
	h.Release()
	return id
}

func (e *Engine) run() {
	h := clock.RegisterForked(e.cfg.Clock, "diembft/"+e.cfg.ID)
	defer h.Close()
	defer e.done.Close()
	propose := e.cfg.Clock.NewTicker(e.cfg.RoundInterval)
	defer propose.Stop()
	lastProgress := e.cfg.Clock.Now()

	for {
		switch i, val, _ := h.Await(e.stop, e.events, propose); i {
		case 0:
			return
		case 1:
			if e.handle(h, val.(network.Message)) {
				lastProgress = e.cfg.Clock.Now()
			}
		case 2:
			e.tryPropose(h)
			if e.cfg.Clock.Since(lastProgress) > e.cfg.RoundTimeout {
				e.fireTimeout()
				lastProgress = e.cfg.Clock.Now()
			}
		}
	}
}

// tryPropose makes the round leader propose one block per round: either the
// next pending payload or an empty block to keep the chain advancing.
func (e *Engine) tryPropose(h clock.Handle) {
	e.mu.Lock()
	if !e.running || e.leaderOf(e.round) != e.cfg.ID {
		e.mu.Unlock()
		return
	}
	// One proposal per round: skip if we already built a block this round.
	for _, b := range e.blocks {
		if b.Round == e.round && b.Proposer == e.cfg.ID {
			e.mu.Unlock()
			return
		}
	}
	var payload any
	if len(e.pending) > 0 {
		payload = e.pending[0]
		e.pending = e.pending[1:]
	} else if e.cfg.PayloadSource != nil {
		payload = e.cfg.PayloadSource()
	}
	parent := e.highQC
	blk := blockNode{
		Round:    e.round,
		ParentID: parent.BlockID,
		Payload:  payload,
		Proposer: e.cfg.ID,
	}
	blk.ID = blockID(parent.BlockID, blk.Round, e.cfg.ID, payload)
	e.blocks[blk.ID] = &blk
	msg := proposalMsg{Block: blk, JustifyQC: parent}
	e.mu.Unlock()

	for _, v := range e.cfg.Validators {
		if v == e.cfg.ID {
			continue
		}
		_ = e.cfg.Transport.Send(e.cfg.ID, v, "diembft.proposal", msg)
	}
	// Vote for our own proposal.
	e.onVote(h, voteMsg{BlockID: blk.ID, Round: blk.Round, Voter: e.cfg.ID})
}

// handle processes one message; it reports whether the message indicates
// protocol progress (for the pacemaker).
func (e *Engine) handle(h clock.Handle, m network.Message) bool {
	switch p := m.Payload.(type) {
	case proposalMsg:
		return e.onProposal(h, p)
	case voteMsg:
		return e.onVote(h, p)
	case qcMsg:
		return e.onQC(h, p.QC)
	case timeoutMsg:
		e.onTimeout(m.From, p)
		return false
	default:
		return false
	}
}

func (e *Engine) onProposal(h clock.Handle, p proposalMsg) bool {
	e.mu.Lock()
	if !e.running {
		e.mu.Unlock()
		return false
	}
	e.updateQCLocked(h, p.JustifyQC)
	if p.Block.Round < e.round || e.voted[p.Block.Round] {
		e.mu.Unlock()
		return false
	}
	if e.leaderOf(p.Block.Round) != p.Block.Proposer {
		e.mu.Unlock()
		return false
	}
	b := p.Block
	e.blocks[b.ID] = &b
	e.voted[b.Round] = true
	if b.Round > e.round {
		e.round = b.Round
	}
	nextLeader := e.leaderOf(b.Round + 1)
	vote := voteMsg{BlockID: b.ID, Round: b.Round, Voter: e.cfg.ID}
	e.mu.Unlock()

	if nextLeader == e.cfg.ID {
		e.onVote(h, vote)
	} else {
		_ = e.cfg.Transport.Send(e.cfg.ID, nextLeader, "diembft.vote", vote)
	}
	// The current leader also aggregates votes for its own block.
	if cur := e.leaderOf(b.Round); cur != e.cfg.ID && cur != nextLeader {
		_ = e.cfg.Transport.Send(e.cfg.ID, cur, "diembft.vote", vote)
	}
	return true
}

func (e *Engine) onVote(h clock.Handle, v voteMsg) bool {
	e.mu.Lock()
	if !e.running {
		e.mu.Unlock()
		return false
	}
	set, ok := e.votes[v.BlockID]
	if !ok {
		set = make(map[string]bool)
		e.votes[v.BlockID] = set
	}
	set[v.Voter] = true
	if len(set) < consensus.QuorumSize(len(e.cfg.Validators)) {
		e.mu.Unlock()
		return true
	}
	newQC := qc{BlockID: v.BlockID, Round: v.Round}
	changed := e.updateQCLocked(h, newQC)
	e.mu.Unlock()
	if changed {
		// Share the certificate so every validator observes the commit.
		for _, val := range e.cfg.Validators {
			if val == e.cfg.ID {
				continue
			}
			_ = e.cfg.Transport.Send(e.cfg.ID, val, "diembft.qc", qcMsg{QC: newQC})
		}
	}
	return true
}

func (e *Engine) onQC(h clock.Handle, c qc) bool {
	e.mu.Lock()
	changed := e.updateQCLocked(h, c)
	e.mu.Unlock()
	return changed
}

// updateQCLocked adopts a higher QC, advances the round past it, and applies
// the two-chain commit rule. Callers hold e.mu. Returns whether state
// changed.
func (e *Engine) updateQCLocked(h clock.Handle, c qc) bool {
	if c.Round < e.highQC.Round {
		return false
	}
	changed := c.Round > e.highQC.Round
	e.highQC = c
	if c.Round+1 > e.round {
		e.round = c.Round + 1
	}
	// Two-chain rule: a QC on block B commits B's parent when the rounds
	// are contiguous.
	b, ok := e.blocks[c.BlockID]
	if !ok {
		return changed
	}
	parent, ok := e.blocks[b.ParentID]
	if !ok || parent.Round == 0 {
		return changed
	}
	if b.Round == parent.Round+1 {
		e.commitChainLocked(h, parent)
	}
	return changed
}

// commitChainLocked commits the given block and its uncommitted ancestors,
// oldest first. Callers hold e.mu.
func (e *Engine) commitChainLocked(h clock.Handle, b *blockNode) {
	if e.committed[b.ID] {
		return
	}
	var chain []*blockNode
	for cur := b; cur != nil && cur.Round > 0 && !e.committed[cur.ID]; {
		chain = append(chain, cur)
		next, ok := e.blocks[cur.ParentID]
		if !ok {
			break
		}
		cur = next
	}
	for i := len(chain) - 1; i >= 0; i-- {
		blk := chain[i]
		e.committed[blk.ID] = true
		if blk.Payload == nil {
			continue // empty pacemaker blocks carry nothing to deliver
		}
		e.seq++
		d := consensus.Decision{
			Seq:       e.seq,
			Payload:   blk.Payload,
			Proposer:  blk.Proposer,
			DecidedAt: e.cfg.Clock.Now(),
		}
		if cb := e.cfg.OnDecide; cb != nil {
			// Release the lock around the callback to avoid re-entrancy
			// deadlocks.
			e.mu.Unlock()
			cb(h, d)
			e.mu.Lock()
		}
	}
}

func (e *Engine) fireTimeout() {
	e.mu.Lock()
	round := e.round
	set, ok := e.timeouts[round]
	if !ok {
		set = make(map[string]bool)
		e.timeouts[round] = set
	}
	set[e.cfg.ID] = true
	e.mu.Unlock()
	for _, v := range e.cfg.Validators {
		if v == e.cfg.ID {
			continue
		}
		_ = e.cfg.Transport.Send(e.cfg.ID, v, "diembft.timeout", timeoutMsg{Round: round})
	}
	e.maybeAdvanceOnTimeout(round)
}

func (e *Engine) onTimeout(from string, t timeoutMsg) {
	e.mu.Lock()
	set, ok := e.timeouts[t.Round]
	if !ok {
		set = make(map[string]bool)
		e.timeouts[t.Round] = set
	}
	set[from] = true
	e.mu.Unlock()
	e.maybeAdvanceOnTimeout(t.Round)
}

func (e *Engine) maybeAdvanceOnTimeout(round uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if round != e.round {
		return
	}
	if len(e.timeouts[round]) >= consensus.QuorumSize(len(e.cfg.Validators)) {
		e.round++
		delete(e.timeouts, round)
	}
}
