// Package raft implements the Raft log-replication protocol (Ongaro &
// Ousterhout 2014) used by Hyperledger Fabric's ordering service. It
// provides leader election with randomized timeouts, AppendEntries
// replication, and majority-commit, delivering decided payloads in log
// order on every node.
//
// The implementation is in-memory (no persistence or snapshotting): the
// paper's Fabric deployments never restart orderers mid-benchmark, so the
// durable-state machinery contributes nothing to the measured behaviour.
package raft

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/network"
)

// Role is a node's current Raft role.
type Role int

// Raft roles.
const (
	Follower Role = iota + 1
	Candidate
	Leader
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Config parameterizes a Raft node.
type Config struct {
	// ID is this node's transport endpoint name.
	ID string
	// Peers lists every cluster member, including this node.
	Peers []string
	// Transport carries protocol messages.
	Transport *network.Transport
	// Clock drives timeouts.
	Clock clock.Clock
	// OnDecide receives committed payloads in log order.
	OnDecide consensus.DecideFunc
	// HeartbeatInterval is the leader's AppendEntries cadence.
	// Default 15ms.
	HeartbeatInterval time.Duration
	// ElectionTimeout is the base follower timeout; each node randomizes
	// within [timeout, 2*timeout). Default 100ms.
	ElectionTimeout time.Duration
	// Seed randomizes election timeouts deterministically.
	Seed int64
}

func (c *Config) fill() {
	if c.Clock == nil {
		c.Clock = clock.New()
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 15 * time.Millisecond
	}
	if c.ElectionTimeout <= 0 {
		c.ElectionTimeout = 100 * time.Millisecond
	}
}

type entry struct {
	Term    uint64
	Payload any
}

// Wire messages.
type (
	requestVote struct {
		Term         uint64
		Candidate    string
		LastLogIndex int
		LastLogTerm  uint64
	}
	voteResponse struct {
		Term    uint64
		Granted bool
	}
	appendEntries struct {
		Term         uint64
		Leader       string
		PrevLogIndex int
		PrevLogTerm  uint64
		Entries      []entry
		LeaderCommit int
	}
	appendResponse struct {
		Term       uint64
		From       string
		Success    bool
		MatchIndex int
	}
	forwardSubmit struct {
		Payload any
	}
)

// Node is one Raft participant.
type Node struct {
	cfg Config
	rng *rand.Rand

	mu          sync.Mutex
	role        Role
	term        uint64
	votedFor    string
	leaderID    string
	log         []entry // log[0] is a sentinel
	commitIndex int
	lastApplied int
	votes       map[string]bool
	nextIndex   map[string]int
	matchIndex  map[string]int
	lastHeard   time.Time
	running     bool

	applyMu sync.Mutex // serializes OnDecide callbacks in log order

	events *clock.Mailbox[network.Message]
	stop   *clock.Gate
	done   *clock.Gate
}

var _ consensus.Engine = (*Node)(nil)

// New creates a Raft node; call Start to join the cluster.
func New(cfg Config) *Node {
	cfg.fill()
	return &Node{
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed ^ int64(len(cfg.ID))*7919)),
		role:       Follower,
		log:        make([]entry, 1), // index 0 sentinel
		votes:      make(map[string]bool),
		nextIndex:  make(map[string]int),
		matchIndex: make(map[string]int),
		events:     clock.NewMailbox[network.Message](cfg.Clock, 8192),
		stop:       clock.NewGate(cfg.Clock),
		done:       clock.NewGate(cfg.Clock),
	}
}

// Start implements consensus.Engine.
func (n *Node) Start() error {
	n.mu.Lock()
	if n.running {
		n.mu.Unlock()
		return nil
	}
	n.running = true
	n.lastHeard = n.cfg.Clock.Now()
	n.mu.Unlock()

	n.cfg.Transport.Register(n.cfg.ID, func(h clock.Handle, m network.Message) {
		n.events.Send(h, m, n.stop)
	})
	clock.Fork(n.cfg.Clock, 1)
	go n.run()
	return nil
}

// Stop implements consensus.Engine.
func (n *Node) Stop(h clock.Handle) {
	n.mu.Lock()
	if !n.running {
		n.mu.Unlock()
		return
	}
	n.running = false
	n.mu.Unlock()
	n.stop.Close()
	h.Await(n.done)
	n.cfg.Transport.Unregister(n.cfg.ID)
}

// Submit implements consensus.Engine. On the leader it appends to the log;
// on followers it forwards to the last known leader.
func (n *Node) Submit(h clock.Handle, payload any) error {
	n.mu.Lock()
	if !n.running {
		n.mu.Unlock()
		return consensus.ErrNotRunning
	}
	if n.role == Leader {
		n.log = append(n.log, entry{Term: n.term, Payload: payload})
		n.matchIndex[n.cfg.ID] = len(n.log) - 1
		n.advanceCommitLocked()
		n.mu.Unlock()
		n.applyCommitted(h)
		return nil
	}
	leader := n.leaderID
	n.mu.Unlock()
	if leader == "" {
		return consensus.ErrNotLeader
	}
	return n.cfg.Transport.Send(n.cfg.ID, leader, "raft.forward", forwardSubmit{Payload: payload})
}

// Leader returns the node's current view of the leader ("" if unknown).
func (n *Node) Leader() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaderID
}

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Term returns the node's current term.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// CommitIndex returns the highest committed log index.
func (n *Node) CommitIndex() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.commitIndex
}

func (n *Node) run() {
	h := clock.RegisterForked(n.cfg.Clock, "raft/"+n.cfg.ID)
	defer h.Close()
	defer n.done.Close()
	tick := n.cfg.Clock.NewTicker(n.cfg.HeartbeatInterval)
	defer tick.Stop()
	electionDeadline := n.randomElectionTimeout()

	for {
		switch i, val, _ := h.Await(n.stop, n.events, tick); i {
		case 0:
			return
		case 1:
			n.handle(h, val.(network.Message))
		case 2:
			n.mu.Lock()
			role := n.role
			idle := n.cfg.Clock.Since(n.lastHeard)
			n.mu.Unlock()
			switch {
			case role == Leader:
				n.broadcastAppend()
			case idle >= electionDeadline:
				n.startElection()
				electionDeadline = n.randomElectionTimeout()
			}
		}
	}
}

func (n *Node) randomElectionTimeout() time.Duration {
	base := n.cfg.ElectionTimeout
	return base + time.Duration(n.rng.Int63n(int64(base)))
}

func (n *Node) handle(h clock.Handle, m network.Message) {
	switch p := m.Payload.(type) {
	case requestVote:
		n.onRequestVote(m.From, p)
	case voteResponse:
		n.onVoteResponse(m.From, p)
	case appendEntries:
		n.onAppendEntries(h, m.From, p)
	case appendResponse:
		n.onAppendResponse(h, p)
	case forwardSubmit:
		n.mu.Lock()
		if n.role == Leader {
			n.log = append(n.log, entry{Term: n.term, Payload: p.Payload})
			n.matchIndex[n.cfg.ID] = len(n.log) - 1
			n.advanceCommitLocked()
		}
		n.mu.Unlock()
		n.applyCommitted(h)
	}
}

func (n *Node) startElection() {
	n.mu.Lock()
	n.role = Candidate
	n.term++
	n.votedFor = n.cfg.ID
	n.votes = map[string]bool{n.cfg.ID: true}
	n.lastHeard = n.cfg.Clock.Now()
	req := requestVote{
		Term:         n.term,
		Candidate:    n.cfg.ID,
		LastLogIndex: len(n.log) - 1,
		LastLogTerm:  n.log[len(n.log)-1].Term,
	}
	peers := n.otherPeers()
	n.mu.Unlock()

	if n.maybeWinLocked() {
		return
	}
	for _, p := range peers {
		_ = n.cfg.Transport.Send(n.cfg.ID, p, "raft.requestVote", req)
	}
}

func (n *Node) onRequestVote(from string, req requestVote) {
	n.mu.Lock()
	if req.Term > n.term {
		n.becomeFollowerLocked(req.Term)
	}
	grant := false
	if req.Term == n.term && (n.votedFor == "" || n.votedFor == req.Candidate) {
		lastIdx := len(n.log) - 1
		lastTerm := n.log[lastIdx].Term
		upToDate := req.LastLogTerm > lastTerm ||
			(req.LastLogTerm == lastTerm && req.LastLogIndex >= lastIdx)
		if upToDate {
			grant = true
			n.votedFor = req.Candidate
			n.lastHeard = n.cfg.Clock.Now()
		}
	}
	term := n.term
	n.mu.Unlock()
	_ = n.cfg.Transport.Send(n.cfg.ID, from, "raft.voteResponse", voteResponse{Term: term, Granted: grant})
}

func (n *Node) onVoteResponse(from string, resp voteResponse) {
	n.mu.Lock()
	if resp.Term > n.term {
		n.becomeFollowerLocked(resp.Term)
		n.mu.Unlock()
		return
	}
	if n.role != Candidate || resp.Term != n.term || !resp.Granted {
		n.mu.Unlock()
		return
	}
	n.votes[from] = true
	n.mu.Unlock()
	n.maybeWinLocked()
}

// maybeWinLocked promotes a candidate holding a majority. It reports whether
// the node became leader.
func (n *Node) maybeWinLocked() bool {
	n.mu.Lock()
	if n.role != Candidate || len(n.votes) < consensus.MajoritySize(len(n.cfg.Peers)) {
		n.mu.Unlock()
		return false
	}
	n.role = Leader
	n.leaderID = n.cfg.ID
	last := len(n.log) - 1
	for _, p := range n.cfg.Peers {
		n.nextIndex[p] = last + 1
		n.matchIndex[p] = 0
	}
	n.matchIndex[n.cfg.ID] = last
	n.mu.Unlock()
	n.broadcastAppend()
	return true
}

func (n *Node) becomeFollowerLocked(term uint64) {
	n.term = term
	n.role = Follower
	n.votedFor = ""
	n.votes = map[string]bool{}
}

func (n *Node) broadcastAppend() {
	n.mu.Lock()
	if n.role != Leader {
		n.mu.Unlock()
		return
	}
	type outMsg struct {
		to  string
		req appendEntries
	}
	outs := make([]outMsg, 0, len(n.cfg.Peers)-1)
	for _, p := range n.cfg.Peers {
		if p == n.cfg.ID {
			continue
		}
		next := n.nextIndex[p]
		if next < 1 {
			next = 1
		}
		prev := next - 1
		entries := make([]entry, len(n.log)-next)
		copy(entries, n.log[next:])
		outs = append(outs, outMsg{
			to: p,
			req: appendEntries{
				Term:         n.term,
				Leader:       n.cfg.ID,
				PrevLogIndex: prev,
				PrevLogTerm:  n.log[prev].Term,
				Entries:      entries,
				LeaderCommit: n.commitIndex,
			},
		})
	}
	n.mu.Unlock()
	for _, o := range outs {
		_ = n.cfg.Transport.Send(n.cfg.ID, o.to, "raft.appendEntries", o.req)
	}
}

func (n *Node) onAppendEntries(h clock.Handle, from string, req appendEntries) {
	n.mu.Lock()
	if req.Term < n.term {
		term := n.term
		n.mu.Unlock()
		_ = n.cfg.Transport.Send(n.cfg.ID, from, "raft.appendResponse",
			appendResponse{Term: term, From: n.cfg.ID, Success: false})
		return
	}
	if req.Term > n.term || n.role != Follower {
		n.becomeFollowerLocked(req.Term)
	}
	n.leaderID = req.Leader
	n.lastHeard = n.cfg.Clock.Now()

	ok := req.PrevLogIndex < len(n.log) && n.log[req.PrevLogIndex].Term == req.PrevLogTerm
	if ok {
		// Truncate conflicts and append.
		idx := req.PrevLogIndex + 1
		for i, e := range req.Entries {
			if idx+i < len(n.log) {
				if n.log[idx+i].Term != e.Term {
					n.log = n.log[:idx+i]
					n.log = append(n.log, req.Entries[i:]...)
					break
				}
				continue
			}
			n.log = append(n.log, req.Entries[i:]...)
			break
		}
		if req.LeaderCommit > n.commitIndex {
			n.commitIndex = min(req.LeaderCommit, len(n.log)-1)
		}
	}
	resp := appendResponse{
		Term:       n.term,
		From:       n.cfg.ID,
		Success:    ok,
		MatchIndex: req.PrevLogIndex + len(req.Entries),
	}
	n.mu.Unlock()

	n.applyCommitted(h)
	_ = n.cfg.Transport.Send(n.cfg.ID, from, "raft.appendResponse", resp)
}

func (n *Node) onAppendResponse(h clock.Handle, resp appendResponse) {
	n.mu.Lock()
	if resp.Term > n.term {
		n.becomeFollowerLocked(resp.Term)
		n.mu.Unlock()
		return
	}
	if n.role != Leader || resp.Term != n.term {
		n.mu.Unlock()
		return
	}
	if resp.Success {
		if resp.MatchIndex > n.matchIndex[resp.From] {
			n.matchIndex[resp.From] = resp.MatchIndex
		}
		n.nextIndex[resp.From] = n.matchIndex[resp.From] + 1
		n.advanceCommitLocked()
	} else {
		if n.nextIndex[resp.From] > 1 {
			n.nextIndex[resp.From]--
		}
	}
	n.mu.Unlock()
	n.applyCommitted(h)
}

// advanceCommitLocked moves commitIndex to the highest index replicated on a
// majority with an entry from the current term. Callers hold n.mu.
func (n *Node) advanceCommitLocked() {
	for idx := len(n.log) - 1; idx > n.commitIndex; idx-- {
		if n.log[idx].Term != n.term {
			break
		}
		count := 0
		for _, p := range n.cfg.Peers {
			if n.matchIndex[p] >= idx {
				count++
			}
		}
		if count >= consensus.MajoritySize(len(n.cfg.Peers)) {
			n.commitIndex = idx
			break
		}
	}
}

func (n *Node) applyCommitted(h clock.Handle) {
	// applyMu guarantees that concurrent callers deliver decisions in
	// strictly increasing log order, one at a time.
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	for {
		n.mu.Lock()
		if n.lastApplied >= n.commitIndex {
			n.mu.Unlock()
			return
		}
		n.lastApplied++
		seq := uint64(n.lastApplied)
		e := n.log[n.lastApplied]
		leader := n.leaderID
		cb := n.cfg.OnDecide
		now := n.cfg.Clock.Now()
		n.mu.Unlock()
		if cb != nil {
			cb(h, consensus.Decision{Seq: seq, Payload: e.Payload, Proposer: leader, DecidedAt: now})
		}
	}
}

func (n *Node) otherPeers() []string {
	out := make([]string, 0, len(n.cfg.Peers)-1)
	for _, p := range n.cfg.Peers {
		if p != n.cfg.ID {
			out = append(out, p)
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
