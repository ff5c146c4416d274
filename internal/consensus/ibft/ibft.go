// Package ibft implements the Istanbul BFT consensus algorithm (Moniz 2020)
// as deployed in ConsenSys Quorum. IBFT is a three-phase protocol
// (pre-prepare, prepare, commit) over 3f+1 validators with immediate
// finality; the proposer rotates round-robin every block height.
//
// The agreement state machine is shared with PBFT in package bftcore; this
// package configures Istanbul's proposer policy and exposes
// Quorum-flavoured accessors.
package ibft

import (
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/consensus/bftcore"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/network"
)

// Config parameterizes an IBFT validator.
type Config struct {
	// ID is this validator's transport endpoint name.
	ID string
	// Validators lists the full validator set, including this node.
	Validators []string
	// Transport carries protocol messages.
	Transport *network.Transport
	// Clock drives round-change timeouts.
	Clock clock.Clock
	// OnDecide receives finalized payloads in height order.
	OnDecide consensus.DecideFunc
	// RoundTimeout is Istanbul's requesttimeout equivalent.
	RoundTimeout time.Duration
	// Digest hashes proposals.
	Digest func(any) crypto.Hash
}

// Engine is one Istanbul BFT validator.
type Engine struct {
	core *bftcore.Core
}

var _ consensus.Engine = (*Engine)(nil)

// New constructs an IBFT validator.
func New(cfg Config) *Engine {
	return &Engine{core: bftcore.New(bftcore.Config{
		ID:           cfg.ID,
		Peers:        cfg.Validators,
		Transport:    cfg.Transport,
		Clock:        cfg.Clock,
		OnDecide:     cfg.OnDecide,
		Proposer:     bftcore.RoundRobinByHeight,
		RoundTimeout: cfg.RoundTimeout,
		Digest:       cfg.Digest,
		MsgPrefix:    "ibft",
	})}
}

// Start implements consensus.Engine.
func (e *Engine) Start() error { return e.core.Start() }

// Stop implements consensus.Engine.
func (e *Engine) Stop(h clock.Handle) { e.core.Stop(h) }

// Submit implements consensus.Engine.
func (e *Engine) Submit(h clock.Handle, payload any) error { return e.core.Submit(h, payload) }

// Height returns the next undecided block height.
func (e *Engine) Height() uint64 { return e.core.Height() }

// IsProposer reports whether this validator proposes the next block.
func (e *Engine) IsProposer() bool { return e.core.IsProposer() }

// PendingCount returns the local proposal backlog.
func (e *Engine) PendingCount() int { return e.core.PendingCount() }
