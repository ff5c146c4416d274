// Package pbft implements Practical Byzantine Fault Tolerance (Castro &
// Liskov 1999) as deployed by Hyperledger Sawtooth's sawtooth-pbft engine:
// three-phase agreement with a view-based primary that only rotates on view
// change (round change), unlike Istanbul's per-height rotation.
//
// The agreement state machine is shared with IBFT in package bftcore.
package pbft

import (
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/consensus/bftcore"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/network"
)

// Config parameterizes a PBFT replica.
type Config struct {
	// ID is this replica's transport endpoint name.
	ID string
	// Replicas lists the full replica set, including this node.
	Replicas []string
	// Transport carries protocol messages.
	Transport *network.Transport
	// Clock drives view-change timeouts.
	Clock clock.Clock
	// OnDecide receives committed payloads in sequence order.
	OnDecide consensus.DecideFunc
	// ViewTimeout is the commit timeout before a view change is requested.
	ViewTimeout time.Duration
	// Digest hashes proposals.
	Digest func(any) crypto.Hash
}

// Engine is one PBFT replica.
type Engine struct {
	core *bftcore.Core
}

var _ consensus.Engine = (*Engine)(nil)

// New constructs a PBFT replica.
func New(cfg Config) *Engine {
	return &Engine{core: bftcore.New(bftcore.Config{
		ID:           cfg.ID,
		Peers:        cfg.Replicas,
		Transport:    cfg.Transport,
		Clock:        cfg.Clock,
		OnDecide:     cfg.OnDecide,
		Proposer:     bftcore.StickyPrimary,
		RoundTimeout: cfg.ViewTimeout,
		Digest:       cfg.Digest,
		MsgPrefix:    "pbft",
	})}
}

// Start implements consensus.Engine.
func (e *Engine) Start() error { return e.core.Start() }

// Stop implements consensus.Engine.
func (e *Engine) Stop(h clock.Handle) { e.core.Stop(h) }

// Submit implements consensus.Engine.
func (e *Engine) Submit(h clock.Handle, payload any) error { return e.core.Submit(h, payload) }

// Height returns the next undecided sequence number.
func (e *Engine) Height() uint64 { return e.core.Height() }

// IsPrimary reports whether this replica is the current primary.
func (e *Engine) IsPrimary() bool { return e.core.IsProposer() }

// PendingCount returns the local proposal backlog.
func (e *Engine) PendingCount() int { return e.core.PendingCount() }
