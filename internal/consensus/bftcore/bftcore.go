// Package bftcore implements the three-phase byzantine agreement state
// machine (pre-prepare, prepare, commit) shared by the Istanbul BFT engine
// used in Quorum and the PBFT engine used in Sawtooth. The two protocols
// differ in proposer selection policy and terminology, which the ibft and
// pbft packages configure; the quorum logic, round-change mechanism, and
// decision pipeline live here.
package bftcore

import (
	"fmt"
	"sync"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/network"
)

// ProposerPolicy selects the proposer for a given (height, round).
type ProposerPolicy func(peers []string, height uint64, round uint64) string

// RoundRobinByHeight rotates the proposer every height (Istanbul BFT's
// default "round robin" policy).
func RoundRobinByHeight(peers []string, height, round uint64) string {
	return peers[(height+round)%uint64(len(peers))]
}

// StickyPrimary keeps the primary fixed per view and only rotates on round
// change (PBFT's view-based primary).
func StickyPrimary(peers []string, _ uint64, round uint64) string {
	return peers[round%uint64(len(peers))]
}

// Config parameterizes the core.
type Config struct {
	// ID is this node's transport endpoint name.
	ID string
	// Peers lists every validator, including this node, in canonical order.
	Peers []string
	// Transport carries protocol messages.
	Transport *network.Transport
	// Clock drives the round-change timer.
	Clock clock.Clock
	// OnDecide receives decided payloads in height order.
	OnDecide consensus.DecideFunc
	// Proposer selects the proposer per (height, round).
	Proposer ProposerPolicy
	// RoundTimeout is how long a node waits at a height before asking for a
	// round change. Default 500ms.
	RoundTimeout time.Duration
	// Digest hashes payloads; defaults to hashing fmt.Sprintf("%v").
	Digest func(any) crypto.Hash
	// MsgPrefix namespaces wire message kinds (e.g. "ibft", "pbft").
	MsgPrefix string
	// MaxPending bounds the proposal backlog; 0 means unbounded.
	MaxPending int
}

func (c *Config) fill() {
	if c.Clock == nil {
		c.Clock = clock.New()
	}
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = 500 * time.Millisecond
	}
	if c.Proposer == nil {
		c.Proposer = RoundRobinByHeight
	}
	if c.Digest == nil {
		// Stream the formatted payload straight into a pooled hasher: the
		// digest matches SumString(fmt.Sprintf("%v", p)) byte for byte but
		// skips the intermediate string.
		c.Digest = func(p any) crypto.Hash {
			h := crypto.AcquireHasher()
			fmt.Fprintf(h, "%v", p)
			d := h.Sum()
			h.Release()
			return d
		}
	}
	if c.MsgPrefix == "" {
		c.MsgPrefix = "bft"
	}
}

// Wire messages.
type (
	prePrepareMsg struct {
		Height  uint64
		Round   uint64
		Digest  crypto.Hash
		Payload any
	}
	prepareMsg struct {
		Height uint64
		Round  uint64
		Digest crypto.Hash
	}
	commitMsg struct {
		Height uint64
		Round  uint64
		Digest crypto.Hash
	}
	roundChangeMsg struct {
		Height   uint64
		NewRound uint64
	}
	forwardMsg struct {
		Payload any
	}
)

// pendingItem is a queued proposal plus its digest, used to deduplicate
// locally-queued copies once a forwarded copy is decided elsewhere.
type pendingItem struct {
	payload any
	digest  crypto.Hash
}

// instance tracks agreement progress at one height.
type instance struct {
	round       uint64
	proposal    any
	digest      crypto.Hash
	prepares    map[string]bool
	commits     map[string]bool
	roundChange map[string]uint64
	prepared    bool
	committed   bool
	startedAt   time.Time
}

// Core is one validator's three-phase agreement engine.
type Core struct {
	cfg Config

	mu          sync.Mutex
	height      uint64 // next height to decide
	inst        *instance
	pending     []pendingItem
	future      map[uint64][]network.Message // messages for heights not yet reached
	futureRound map[uint64][]network.Message // same-height messages from rounds ahead of ours
	roundAhead  map[uint64]map[string]bool   // round -> senders seen ahead of us
	decideQ     []consensus.Decision         // decided but not yet delivered
	applyMu     sync.Mutex                   // serializes OnDecide delivery
	running     bool

	events *clock.Mailbox[network.Message]
	stop   *clock.Gate
	done   *clock.Gate
}

var _ consensus.Engine = (*Core)(nil)

// New constructs a core; call Start to join the validator set.
func New(cfg Config) *Core {
	cfg.fill()
	return &Core{
		cfg:         cfg,
		height:      1,
		future:      make(map[uint64][]network.Message),
		futureRound: make(map[uint64][]network.Message),
		roundAhead:  make(map[uint64]map[string]bool),
		events:      clock.NewMailbox[network.Message](cfg.Clock, 8192),
		stop:        clock.NewGate(cfg.Clock),
		done:        clock.NewGate(cfg.Clock),
	}
}

// Start implements consensus.Engine.
func (c *Core) Start() error {
	c.mu.Lock()
	if c.running {
		c.mu.Unlock()
		return nil
	}
	c.running = true
	c.newInstanceLocked()
	c.mu.Unlock()

	c.cfg.Transport.Register(c.cfg.ID, func(h clock.Handle, m network.Message) {
		c.events.Send(h, m, c.stop)
	})
	clock.Fork(c.cfg.Clock, 1)
	go c.run()
	return nil
}

// Stop implements consensus.Engine.
func (c *Core) Stop(h clock.Handle) {
	c.mu.Lock()
	if !c.running {
		c.mu.Unlock()
		return
	}
	c.running = false
	c.mu.Unlock()
	c.stop.Close()
	h.Await(c.done)
	c.cfg.Transport.Unregister(c.cfg.ID)
}

// Submit implements consensus.Engine. The payload always queues locally so
// that it survives proposer failures; when this node is not the proposer, a
// copy is also forwarded to the current proposer for prompt ordering. The
// locally-queued copy is discarded once a matching digest is decided.
func (c *Core) Submit(h clock.Handle, payload any) error {
	c.mu.Lock()
	if !c.running {
		c.mu.Unlock()
		return consensus.ErrNotRunning
	}
	if c.cfg.MaxPending > 0 && len(c.pending) >= c.cfg.MaxPending {
		c.mu.Unlock()
		return consensus.ErrOverloaded
	}
	c.pending = append(c.pending, pendingItem{payload: payload, digest: c.cfg.Digest(payload)})
	proposer := c.cfg.Proposer(c.cfg.Peers, c.height, c.inst.round)
	c.mu.Unlock()

	if proposer == c.cfg.ID {
		c.tryPropose(h)
		return nil
	}
	// Best effort: a failed forward is recovered by the round change.
	_ = c.cfg.Transport.Send(c.cfg.ID, proposer, c.kind("forward"), forwardMsg{Payload: payload})
	return nil
}

// Height returns the next undecided height.
func (c *Core) Height() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.height
}

// PendingCount returns the local proposal backlog length.
func (c *Core) PendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// IsProposer reports whether this node proposes at the current (height,
// round).
func (c *Core) IsProposer() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.Proposer(c.cfg.Peers, c.height, c.inst.round) == c.cfg.ID
}

func (c *Core) kind(suffix string) string { return c.cfg.MsgPrefix + "." + suffix }

func (c *Core) newInstanceLocked() {
	round := uint64(0)
	if c.inst != nil && c.inst.committed {
		round = 0
	} else if c.inst != nil {
		round = c.inst.round
	}
	c.inst = &instance{
		round:       round,
		prepares:    make(map[string]bool),
		commits:     make(map[string]bool),
		roundChange: make(map[string]uint64),
		startedAt:   c.cfg.Clock.Now(),
	}
	// Round tracking is per height; a fresh instance invalidates it.
	c.futureRound = make(map[uint64][]network.Message)
	c.roundAhead = make(map[uint64]map[string]bool)
}

func (c *Core) run() {
	h := clock.RegisterForked(c.cfg.Clock, "bftcore/"+c.cfg.ID)
	defer h.Close()
	defer c.done.Close()
	tick := c.cfg.Clock.NewTicker(c.cfg.RoundTimeout / 4)
	defer tick.Stop()
	for {
		switch i, val, _ := h.Await(c.stop, c.events, tick); i {
		case 0:
			return
		case 1:
			c.handle(h, val.(network.Message))
		case 2:
			c.tryPropose(h)
			c.checkRoundTimeout(h)
		}
	}
}

func (c *Core) handle(h clock.Handle, m network.Message) {
	// Buffer messages for heights this node has not reached yet; they are
	// replayed after the height advances. Without this, a fast proposer's
	// next pre-prepare races a slow validator's previous decision.
	if ht, ok := msgHeight(m.Payload); ok {
		c.mu.Lock()
		if ht > c.height {
			c.future[ht] = append(c.future[ht], m)
			c.mu.Unlock()
			return
		}
		// Round catch-up: a node left behind in an old round would drop
		// agreement messages from the cluster's newer round and stall (its
		// in-flight proposal would be stranded forever). Buffer them and
		// jump once f+1 distinct peers are provably ahead.
		if r, rok := msgRound(m.Payload); rok && ht == c.height && r > c.inst.round {
			c.futureRound[r] = append(c.futureRound[r], m)
			set := c.roundAhead[r]
			if set == nil {
				set = make(map[string]bool)
				c.roundAhead[r] = set
			}
			set[m.From] = true
			if len(set) >= consensus.FaultTolerance(len(c.cfg.Peers))+1 {
				replay := c.jumpToRoundLocked(r)
				c.mu.Unlock()
				for _, bm := range replay {
					c.handle(h, bm)
				}
				c.tryPropose(h)
				return
			}
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
	}
	switch p := m.Payload.(type) {
	case forwardMsg:
		c.mu.Lock()
		c.pending = append(c.pending, pendingItem{payload: p.Payload, digest: c.cfg.Digest(p.Payload)})
		c.mu.Unlock()
		c.tryPropose(h)
	case prePrepareMsg:
		c.onPrePrepare(h, p)
	case prepareMsg:
		c.onPrepare(h, m.From, p)
	case commitMsg:
		c.onCommit(h, m.From, p)
	case roundChangeMsg:
		c.onRoundChange(h, m.From, p)
	}
}

// msgRound extracts the round of agreement-phase messages (round-change
// messages are handled separately by onRoundChange).
func msgRound(payload any) (uint64, bool) {
	switch p := payload.(type) {
	case prePrepareMsg:
		return p.Round, true
	case prepareMsg:
		return p.Round, true
	case commitMsg:
		return p.Round, true
	default:
		return 0, false
	}
}

// jumpToRoundLocked abandons the current round in favour of round r,
// requeueing this node's stranded proposal, and returns the buffered
// messages of round r for replay. Callers hold c.mu.
func (c *Core) jumpToRoundLocked(r uint64) []network.Message {
	if c.inst.proposal != nil &&
		c.cfg.Proposer(c.cfg.Peers, c.height, c.inst.round) == c.cfg.ID {
		item := pendingItem{payload: c.inst.proposal, digest: c.inst.digest}
		c.pending = append([]pendingItem{item}, c.pending...)
	}
	c.inst = &instance{
		round:       r,
		prepares:    make(map[string]bool),
		commits:     make(map[string]bool),
		roundChange: make(map[string]uint64),
		startedAt:   c.cfg.Clock.Now(),
	}
	replay := c.futureRound[r]
	for rr := range c.futureRound {
		if rr <= r {
			delete(c.futureRound, rr)
		}
	}
	for rr := range c.roundAhead {
		if rr <= r {
			delete(c.roundAhead, rr)
		}
	}
	return replay
}

func msgHeight(payload any) (uint64, bool) {
	switch p := payload.(type) {
	case prePrepareMsg:
		return p.Height, true
	case prepareMsg:
		return p.Height, true
	case commitMsg:
		return p.Height, true
	case roundChangeMsg:
		return p.Height, true
	default:
		return 0, false
	}
}

// replayFuture re-handles buffered messages for the current height.
func (c *Core) replayFuture(h clock.Handle) {
	c.mu.Lock()
	msgs := c.future[c.height]
	delete(c.future, c.height)
	// Garbage-collect anything below the current height.
	for h := range c.future {
		if h < c.height {
			delete(c.future, h)
		}
	}
	c.mu.Unlock()
	for _, m := range msgs {
		c.handle(h, m)
	}
}

// tryPropose broadcasts a pre-prepare if this node is the proposer at the
// current height/round, has a pending payload, and has not yet proposed.
func (c *Core) tryPropose(h clock.Handle) {
	c.mu.Lock()
	if !c.running || c.inst.proposal != nil || len(c.pending) == 0 {
		c.mu.Unlock()
		return
	}
	if c.cfg.Proposer(c.cfg.Peers, c.height, c.inst.round) != c.cfg.ID {
		c.mu.Unlock()
		return
	}
	item := c.pending[0]
	c.pending = c.pending[1:]
	payload, digest := item.payload, item.digest
	c.inst.proposal = payload
	c.inst.digest = digest
	c.inst.prepares[c.cfg.ID] = true
	msg := prePrepareMsg{Height: c.height, Round: c.inst.round, Digest: digest, Payload: payload}
	prep := prepareMsg{Height: c.height, Round: c.inst.round, Digest: digest}
	c.mu.Unlock()

	c.broadcast("preprepare", msg)
	c.broadcast("prepare", prep)
	c.advance(h)
}

func (c *Core) onPrePrepare(h clock.Handle, p prePrepareMsg) {
	c.mu.Lock()
	if p.Height != c.height || p.Round != c.inst.round || c.inst.proposal != nil {
		c.mu.Unlock()
		return
	}
	c.inst.proposal = p.Payload
	c.inst.digest = p.Digest
	c.inst.prepares[c.cfg.ID] = true
	prep := prepareMsg{Height: c.height, Round: c.inst.round, Digest: p.Digest}
	c.mu.Unlock()

	c.broadcast("prepare", prep)
	c.advance(h)
}

func (c *Core) onPrepare(h clock.Handle, from string, p prepareMsg) {
	c.mu.Lock()
	if p.Height != c.height || p.Round != c.inst.round {
		c.mu.Unlock()
		return
	}
	c.inst.prepares[from] = true
	c.mu.Unlock()
	c.advance(h)
}

func (c *Core) onCommit(h clock.Handle, from string, p commitMsg) {
	c.mu.Lock()
	if p.Height != c.height || p.Round != c.inst.round {
		c.mu.Unlock()
		return
	}
	c.inst.commits[from] = true
	c.mu.Unlock()
	c.advance(h)
}

// advance drives the prepared → committed → decided transitions.
func (c *Core) advance(h clock.Handle) {
	quorum := consensus.QuorumSize(len(c.cfg.Peers))

	c.mu.Lock()
	if c.inst.proposal != nil && !c.inst.prepared && len(c.inst.prepares) >= quorum {
		c.inst.prepared = true
		c.inst.commits[c.cfg.ID] = true
		msg := commitMsg{Height: c.height, Round: c.inst.round, Digest: c.inst.digest}
		c.mu.Unlock()
		c.broadcast("commit", msg)
		c.mu.Lock()
	}
	if c.inst.proposal != nil && c.inst.prepared && !c.inst.committed && len(c.inst.commits) >= quorum {
		c.inst.committed = true
		// Drop local copies of the decided payload from the backlog.
		kept := c.pending[:0]
		for _, it := range c.pending {
			if it.digest != c.inst.digest {
				kept = append(kept, it)
			}
		}
		c.pending = kept
		decision := consensus.Decision{
			Seq:       c.height,
			Payload:   c.inst.proposal,
			Proposer:  c.cfg.Proposer(c.cfg.Peers, c.height, c.inst.round),
			DecidedAt: c.cfg.Clock.Now(),
		}
		c.decideQ = append(c.decideQ, decision)
		c.height++
		c.newInstanceLocked()
		c.mu.Unlock()
		c.flushDecisions(h)
		c.replayFuture(h)
		c.tryPropose(h)
		return
	}
	c.mu.Unlock()
}

// flushDecisions delivers queued decisions to OnDecide in height order,
// serialized across goroutines.
func (c *Core) flushDecisions(h clock.Handle) {
	c.applyMu.Lock()
	defer c.applyMu.Unlock()
	for {
		c.mu.Lock()
		if len(c.decideQ) == 0 {
			c.mu.Unlock()
			return
		}
		d := c.decideQ[0]
		c.decideQ = c.decideQ[1:]
		cb := c.cfg.OnDecide
		c.mu.Unlock()
		if cb != nil {
			cb(h, d)
		}
	}
}

// checkRoundTimeout fires a round change when the current height has been
// stuck longer than RoundTimeout.
func (c *Core) checkRoundTimeout(h clock.Handle) {
	c.mu.Lock()
	if c.inst.committed || c.cfg.Clock.Since(c.inst.startedAt) < c.cfg.RoundTimeout {
		c.mu.Unlock()
		return
	}
	// Only escalate when there is something to decide.
	if c.inst.proposal == nil && len(c.pending) == 0 {
		c.inst.startedAt = c.cfg.Clock.Now()
		c.mu.Unlock()
		return
	}
	// Re-forward the stranded payload to the current proposer: a payload
	// queued only on this node makes no progress otherwise, because a
	// single node's round-change request can never reach quorum while the
	// other validators see nothing wrong.
	var refwd *forwardMsg
	proposer := c.cfg.Proposer(c.cfg.Peers, c.height, c.inst.round)
	if len(c.pending) > 0 && proposer != c.cfg.ID {
		refwd = &forwardMsg{Payload: c.pending[0].payload}
	}
	newRound := c.inst.round + 1
	c.inst.roundChange[c.cfg.ID] = newRound
	msg := roundChangeMsg{Height: c.height, NewRound: newRound}
	c.mu.Unlock()
	if refwd != nil {
		_ = c.cfg.Transport.Send(c.cfg.ID, proposer, c.kind("forward"), *refwd)
	}
	c.broadcast("roundchange", msg)
	c.maybeChangeRound(h)
}

func (c *Core) onRoundChange(h clock.Handle, from string, p roundChangeMsg) {
	c.mu.Lock()
	if p.Height != c.height || p.NewRound <= c.inst.round {
		c.mu.Unlock()
		return
	}
	c.inst.roundChange[from] = p.NewRound
	// Join rule: once f+1 peers ask for a round change, a correct node
	// joins even if it saw no local stall — otherwise a single stalled
	// node can never assemble a quorum.
	var join *roundChangeMsg
	if _, self := c.inst.roundChange[c.cfg.ID]; !self &&
		len(c.inst.roundChange) >= consensus.FaultTolerance(len(c.cfg.Peers))+1 {
		c.inst.roundChange[c.cfg.ID] = p.NewRound
		join = &roundChangeMsg{Height: c.height, NewRound: p.NewRound}
	}
	c.mu.Unlock()
	if join != nil {
		c.broadcast("roundchange", *join)
	}
	c.maybeChangeRound(h)
}

func (c *Core) maybeChangeRound(h clock.Handle) {
	quorum := consensus.QuorumSize(len(c.cfg.Peers))
	c.mu.Lock()
	if len(c.inst.roundChange) < quorum {
		c.mu.Unlock()
		return
	}
	// Move to the smallest round a quorum agrees to reach.
	newRound := c.inst.round + 1
	// Requeue the stalled proposal so it is not lost across the round change.
	if c.inst.proposal != nil &&
		c.cfg.Proposer(c.cfg.Peers, c.height, c.inst.round) == c.cfg.ID {
		item := pendingItem{payload: c.inst.proposal, digest: c.inst.digest}
		c.pending = append([]pendingItem{item}, c.pending...)
	}
	c.inst = &instance{
		round:       newRound,
		prepares:    make(map[string]bool),
		commits:     make(map[string]bool),
		roundChange: make(map[string]uint64),
		startedAt:   c.cfg.Clock.Now(),
	}
	replay := c.futureRound[newRound]
	for rr := range c.futureRound {
		if rr <= newRound {
			delete(c.futureRound, rr)
		}
	}
	for rr := range c.roundAhead {
		if rr <= newRound {
			delete(c.roundAhead, rr)
		}
	}
	c.mu.Unlock()
	for _, bm := range replay {
		c.handle(h, bm)
	}
	c.tryPropose(h)
}

func (c *Core) broadcast(suffix string, payload any) {
	kind := c.kind(suffix)
	for _, p := range c.cfg.Peers {
		if p == c.cfg.ID {
			continue
		}
		_ = c.cfg.Transport.Send(c.cfg.ID, p, kind, payload)
	}
}
