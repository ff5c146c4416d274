// Package corda simulates Corda 4.8.6, both the Open Source and the
// Enterprise edition, as benchmarked in the paper. Corda is blockless: each
// transaction is a UTXO flow that must be signed by every node in the
// network and, when it consumes states, notarised by the uniqueness service
// (paper §2).
//
// Behaviours reproduced from the paper:
//   - Corda OS processes flows on a single worker and collects the other
//     nodes' signatures serially ("Corda OS does this serially", §5.1);
//     Enterprise uses multithreaded flow workers and parallel signing
//     (§5.2) — the cause of the roughly 10x gap between the editions.
//   - Read flows (KeyValue-Get, BankingApp-Balance) iterate over every
//     vault state to find a key ("These functions require ... iterating
//     over each KeyValue pair", §5.1). Under load the scan pushes flows
//     past their deadline: Corda OS Get fails completely, Enterprise reads
//     crawl at 0.13-3.5 MTPS.
//   - Only flows that consume states (SendPayment) talk to the notary
//     (§5.8.1), which rejects already-consumed states.
//   - Failed, timed-out, or rejected flows produce no client event: the
//     paper counts them as transactions never received.
package corda

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/consensus/notary"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/trace"
	"github.com/coconut-bench/coconut/internal/wal"
)

// Edition selects the Corda variant.
type Edition int

// Corda editions.
const (
	OpenSource Edition = iota + 1
	Enterprise
)

// String implements fmt.Stringer.
func (e Edition) String() string {
	switch e {
	case OpenSource:
		return systems.NameCordaOS
	case Enterprise:
		return systems.NameCordaEnt
	default:
		return fmt.Sprintf("Edition(%d)", int(e))
	}
}

// Config parameterizes a Corda network.
type Config struct {
	// Edition selects OS or Enterprise defaults.
	Edition Edition
	// Nodes is the network size (paper: 4; every node signs every flow).
	Nodes int
	// FlowWorkers is the per-node flow concurrency (OS default 1,
	// Enterprise default 8).
	FlowWorkers int
	// SignProcessing is the per-party flow-processing time during signature
	// collection (OS default 25ms, Enterprise 8ms).
	SignProcessing time.Duration
	// ScanCost is the per-state cost of vault queries (OS default 80µs,
	// Enterprise 10µs).
	ScanCost time.Duration
	// FlowTimeout abandons flows that run too long; abandoned flows are
	// lost without a client event. Default 2s.
	FlowTimeout time.Duration
	// QueueDepth bounds each node's flow backlog; overflow is dropped
	// silently (lost). Default 4096.
	QueueDepth int
	// RequiredSigners, when positive, bounds how many counterparties must
	// sign each flow instead of the whole network. The paper's lessons
	// learned (§6) suggest exactly this: "In a network that consists of
	// many peers, where only a small subset of nodes need to sign a
	// transaction at a time, Corda could achieve higher performance than
	// Fabric." 0 = every other node signs (the paper's benchmarked setup).
	RequiredSigners int
	// ReadScanBudget, when positive, bounds how many vault states a read
	// flow may visit before it is abandoned as timed out. It models the
	// paper's Corda OS finding that full-vault iteration makes reads
	// hopeless once the vault is non-trivial (§5.1). 0 = unlimited.
	ReadScanBudget int
	// Latency models per-hop network delay for signing and notarisation
	// round trips (nil = zero latency).
	Latency network.LatencyModel
	// Clock drives timers and simulated processing.
	Clock clock.Clock
	// WAL, when set, mounts a write-ahead log on every node's commit gate:
	// each finalised flow's vault application is durably recorded before it
	// applies (see systems.DurableGate).
	WAL *wal.Options
	// Trace, when set, receives sampled spans: per-flow consensus-analogue
	// spans (signature collection + notarisation) and WAL appends/fsyncs.
	Trace *trace.Tracer
}

func (c *Config) fill() {
	if c.Edition == 0 {
		c.Edition = OpenSource
	}
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.FlowWorkers <= 0 {
		if c.Edition == Enterprise {
			c.FlowWorkers = 8
		} else {
			c.FlowWorkers = 1
		}
	}
	if c.SignProcessing <= 0 {
		if c.Edition == Enterprise {
			c.SignProcessing = 8 * time.Millisecond
		} else {
			c.SignProcessing = 25 * time.Millisecond
		}
	}
	if c.ScanCost <= 0 {
		if c.Edition == Enterprise {
			c.ScanCost = 10 * time.Microsecond
		} else {
			c.ScanCost = 80 * time.Microsecond
		}
	}
	if c.FlowTimeout <= 0 {
		c.FlowTimeout = 2 * time.Second
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4096
	}
	if c.Latency == nil {
		c.Latency = network.ZeroLatency{}
	}
	if c.Clock == nil {
		c.Clock = clock.New()
	}
}

// flowJob is one queued flow invocation.
type flowJob struct {
	tx *chain.Transaction
}

// node is one Corda node.
type node struct {
	systems.Node
	vault *chain.Vault
	queue *clock.Mailbox[flowJob]
}

// Network is a full Corda deployment (either edition).
type Network struct {
	systems.NodeSet
	cfg Config

	nodes   []*node
	notary  *notary.Service
	signers map[string]*crypto.Identity

	mu        sync.Mutex
	running   bool
	dropped   uint64            // flows lost to queue overflow
	timeout   uint64            // flows lost to deadline
	failed    uint64            // flows lost to execution/notary failure
	conflicts map[string]uint64 // failed flows by canonical abort code

	wg   *clock.Group
	stop *clock.Gate
}

var _ systems.Driver = (*Network)(nil)

// New assembles a Corda network of the configured edition.
func New(cfg Config) *Network {
	cfg.fill()
	n := &Network{
		cfg:       cfg,
		notary:    notary.NewService("corda-notary"),
		signers:   make(map[string]*crypto.Identity, cfg.Nodes),
		conflicts: make(map[string]uint64),
		wg:        clock.NewGroup(cfg.Clock),
		stop:      clock.NewGate(cfg.Clock),
	}
	// Corda has no shared transport (latency is modeled point to point), so
	// the plane's transport stays nil and link faults are no-ops.
	n.NodeSet = systems.NewNodeSet(systems.NodeSetConfig{
		System: cfg.Edition.String(), Size: cfg.Nodes, Clock: cfg.Clock,
		WAL: cfg.WAL, Trace: cfg.Trace, MempoolDepth: n.flowBacklog,
	})
	for i := 0; i < cfg.Nodes; i++ {
		id := fmt.Sprintf("corda-node-%d", i)
		nd := &node{
			vault: chain.NewVault(),
			queue: clock.NewMailbox[flowJob](cfg.Clock, cfg.QueueDepth),
		}
		n.AddNode(&nd.Node, id)
		n.nodes = append(n.nodes, nd)
		n.signers[id] = crypto.NewIdentity(id)
	}
	return n
}

// NewOS assembles a Corda Open Source network.
func NewOS(cfg Config) *Network {
	cfg.Edition = OpenSource
	return New(cfg)
}

// NewEnterprise assembles a Corda Enterprise network.
func NewEnterprise(cfg Config) *Network {
	cfg.Edition = Enterprise
	return New(cfg)
}

// Name implements systems.Driver.
func (n *Network) Name() string { return n.cfg.Edition.String() }

// Start implements systems.Driver.
func (n *Network) Start() error {
	n.mu.Lock()
	if n.running {
		n.mu.Unlock()
		return nil
	}
	n.running = true
	n.mu.Unlock()

	clock.Fork(n.cfg.Clock, len(n.nodes)*n.cfg.FlowWorkers)
	for _, nd := range n.nodes {
		for w := 0; w < n.cfg.FlowWorkers; w++ {
			nd, w := nd, w
			n.wg.Add(1)
			go func() {
				h := clock.RegisterForked(n.cfg.Clock, "corda/"+nd.ID+"/w"+strconv.Itoa(w))
				defer h.Close()
				defer n.wg.Done()
				for {
					switch i, val, _ := h.Await(n.stop, nd.queue); i {
					case 0:
						return
					case 1:
						n.runFlow(h, nd, val.(flowJob).tx)
					}
				}
			}()
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
	n.stop.Close()
	n.wg.Wait(h)
}

// Submit implements systems.Driver: the flow enqueues on the entry node's
// flow workers. Overflow drops the flow silently (lost end to end).
func (n *Network) Submit(entryNode int, tx *chain.Transaction) error {
	n.mu.Lock()
	if !n.running {
		n.mu.Unlock()
		return consensus.ErrNotRunning
	}
	n.mu.Unlock()

	nd := n.nodes[entryNode%len(n.nodes)]
	if nd.Gate.Down() {
		return systems.ErrNodeDown // the RPC connection is refused
	}
	if nd.queue.TrySend(flowJob{tx: tx}) {
		tx.Stages.Mark(chain.StageSubmit, n.cfg.Clock.Now())
		return nil
	}
	n.mu.Lock()
	n.dropped++
	n.mu.Unlock()
	return nil // silent: the RPC accepted the flow, the node shed it
}

// runFlow executes one flow end to end on the entry node.
func (n *Network) runFlow(h clock.Handle, entry *node, tx *chain.Transaction) {
	started := n.cfg.Clock.Now()
	// A flow worker picked the job up: the queue wait ends here.
	tx.Stages.Mark(chain.StageQueue, started)
	op := tx.Ops[0]

	// Phase 1: build the UTXO transaction, paying vault-scan costs for
	// reads and input resolution.
	utx, readOnly, err := n.buildTransaction(h, entry, tx, op)
	if err != nil {
		n.recordFailure(err)
		return
	}
	// Flow build is Corda's execution phase (vault scans, contract logic).
	built := n.cfg.Clock.Now()
	tx.Stages.Mark(chain.StageExecute, built)
	if n.deadlineExceeded(started) {
		n.recordTimeout()
		return
	}

	// Phase 2: collect signatures. The benchmarked deployments require
	// every other node to sign; RequiredSigners > 0 enables the paper's
	// §6 subset-signing improvement. Serial for OS, parallel for
	// Enterprise.
	parties := make([]string, 0, len(n.nodes)-1)
	for _, other := range n.nodes {
		if other != entry {
			parties = append(parties, other.ID)
		}
	}
	if k := n.cfg.RequiredSigners; k > 0 && k < len(parties) {
		parties = parties[:k]
	}
	mode := notary.Serial
	if n.cfg.Edition == Enterprise {
		mode = notary.Parallel
	}
	txID := flowTxID(tx, utx)
	_, err = notary.CollectSignatures(n.cfg.Clock, h, mode, parties, txID, func(sh clock.Handle, party string, id crypto.Hash) (crypto.Signature, error) {
		// Corda requires every counterparty's signature: a crashed signer
		// fails the whole flow, so one node outage halts all write flows —
		// the flip side of the paper's §6 observation that requiring fewer
		// signers is where Corda's scalability lies.
		if p := n.nodeByID(party); p != nil && p.Gate.Down() {
			return crypto.Signature{}, fmt.Errorf("corda: counterparty %s unreachable", party)
		}
		// One round trip to the counterparty plus its flow processing.
		rtt := n.cfg.Latency.Delay(entry.ID, party) + n.cfg.Latency.Delay(party, entry.ID)
		sh.Sleep(rtt + n.cfg.SignProcessing)
		return crypto.Signature{Signer: party, Bytes: n.signers[party].Sign(id.Bytes())}, nil
	})
	if err != nil {
		n.recordFailure(err)
		return
	}
	if n.deadlineExceeded(started) {
		n.recordTimeout()
		return
	}

	// Phase 3: notarise when the flow consumes states (§5.8.1: only
	// state-consuming flows need the notary).
	if utx != nil && len(utx.Inputs) > 0 {
		rtt := n.cfg.Latency.Delay(entry.ID, n.notary.Name) + n.cfg.Latency.Delay(n.notary.Name, entry.ID)
		h.Sleep(rtt)
		if err := n.notary.Notarise(utx.ID, utx.Inputs); err != nil {
			n.recordFailure(err) // double spend: flow fails, tx lost
			return
		}
	}
	if n.deadlineExceeded(started) {
		n.recordTimeout()
		return
	}
	// Signature collection plus notarisation is Corda's ordering/consensus
	// analogue: after this instant the flow's outcome is decided.
	decided := n.cfg.Clock.Now()
	tx.Stages.Mark(chain.StageConsensus, decided)
	// Blockless Corda has no rounds; the consensus-analogue span covers one
	// sampled flow's signing plus notarisation, keyed to its transaction.
	if tr := n.cfg.Trace; tr.Sampled(trace.Key(tx.ID)) {
		tr.Add(trace.Span{Key: trace.Key(tx.ID), Name: "flow:sign+notarise", Cat: "consensus",
			Proc: n.Name(), Lane: "consensus", Start: built.UnixNano(), End: decided.UnixNano()})
	}

	// Phase 4: finality — distribute to every vault; reads complete on the
	// entry node alone.
	now := n.cfg.Clock.Now()
	ev := systems.Event{
		TxID:      tx.ID,
		Client:    tx.Client,
		Committed: true,
		ValidOK:   true,
		OpCount:   tx.OpCount(),
		Stages:    &tx.Stages,
	}
	if readOnly || utx == nil {
		n.Hub.EmitDirect(ev, now)
		return
	}
	// One flow counts as one failure no matter how many vaults reject its
	// states; the flag is atomic because a crashed node's deferred apply
	// replays on the restart goroutine.
	var failed atomic.Bool
	for _, nd := range n.nodes {
		nd := nd
		if nd != entry {
			// State distribution crosses the network once per node.
			h.Sleep(n.cfg.Latency.Delay(entry.ID, nd.ID))
		}
		// A node that crashed between signing and finality receives the
		// states when it restarts (Corda's message-queue redelivery). Each
		// flow is one WAL record: Corda persists per transaction, not per
		// block.
		nd.Gate.Commit(h, 1, func() {
			if err := nd.vault.Apply(utx); err != nil {
				if !failed.Swap(true) {
					n.recordFailure(err)
				}
				return
			}
			// Vault apply is Corda's commit-time validation (the vault
			// rejects already-consumed inputs); first node wins the mark.
			tx.Stages.Mark(chain.StageValidate, n.cfg.Clock.Now())
			nd.HubNode.Committed(ev, n.cfg.Clock.Now())
		})
	}
}

// nodeByID resolves a node by its identity.
func (n *Network) nodeByID(id string) *node {
	for _, nd := range n.nodes {
		if nd.ID == id {
			return nd
		}
	}
	return nil
}

// buildTransaction translates an IEL operation into a UTXO transaction,
// charging vault scan costs. It returns utx == nil with readOnly == true
// for pure reads.
func (n *Network) buildTransaction(h clock.Handle, entry *node, tx *chain.Transaction, op chain.Operation) (*chain.UTXOTransaction, bool, error) {
	switch {
	case op.IEL == iel.DoNothingName:
		utx := chain.NewUTXOTransaction(tx.Client, tx.Seq, op, nil,
			[]chain.ContractState{{Kind: "noop", Key: crypto.FormatID("noop", tx.ID)}})
		return utx, false, nil

	case op.IEL == iel.KeyValueName && op.Function == iel.FnSet:
		if len(op.Args) != 2 {
			return nil, false, fmt.Errorf("corda: Set wants 2 args")
		}
		// The paper's KeyValue-Set "iteratively check[s] whether a KeyValue
		// pair exists" just like Get (§5.1), so the write pays the
		// duplicate-check scan. Unlike pure reads it is not budget-bounded:
		// the flow proceeds once the key is (for the paper's partitioned
		// scheme, always) found absent. When the key does exist — the
		// contention plane's shared key spaces — the flow consumes the old
		// state and reissues it, so concurrent writers of one hot key race
		// at the notary instead of silently accumulating duplicates.
		var inputs []chain.StateRef
		if ref, _, found := n.findStateOpt(h, entry, "kv", op.Args[0]); found {
			inputs = []chain.StateRef{ref}
		}
		utx := chain.NewUTXOTransaction(tx.Client, tx.Seq, op, inputs,
			[]chain.ContractState{{Kind: "kv", Key: op.Args[0], Value: op.Args[1], Owner: tx.Client}})
		return utx, false, nil

	case op.IEL == iel.KeyValueName && op.Function == iel.FnGet:
		if len(op.Args) != 1 {
			return nil, false, fmt.Errorf("corda: Get wants 1 arg")
		}
		_, _, found, err := n.scanVault(h, entry, "kv", op.Args[0])
		if err != nil {
			return nil, true, err
		}
		if !found {
			return nil, true, fmt.Errorf("corda: key %q not found", op.Args[0])
		}
		return nil, true, nil

	case op.IEL == iel.BankingAppName && op.Function == iel.FnCreateAccount:
		if len(op.Args) != 3 {
			return nil, false, fmt.Errorf("corda: CreateAccount wants 3 args")
		}
		utx := chain.NewUTXOTransaction(tx.Client, tx.Seq, op, nil, []chain.ContractState{
			{Kind: "account", Key: op.Args[0], Value: op.Args[1], Owner: tx.Client},
			{Kind: "savings", Key: op.Args[0], Value: op.Args[2], Owner: tx.Client},
		})
		return utx, false, nil

	case op.IEL == iel.BankingAppName && op.Function == iel.FnSendPayment:
		if len(op.Args) != 3 {
			return nil, false, fmt.Errorf("corda: SendPayment wants 3 args")
		}
		ref, st, found, err := n.scanVault(h, entry, "account", op.Args[0])
		if err != nil {
			return nil, false, err
		}
		if !found {
			return nil, false, fmt.Errorf("corda: account %q not found", op.Args[0])
		}
		utx := chain.NewUTXOTransaction(tx.Client, tx.Seq, op,
			[]chain.StateRef{ref},
			[]chain.ContractState{{Kind: "account", Key: op.Args[1], Value: st.Value, Owner: tx.Client}})
		return utx, false, nil

	case op.IEL == iel.BankingAppName && op.Function == iel.FnBalance:
		if len(op.Args) != 1 {
			return nil, false, fmt.Errorf("corda: Balance wants 1 arg")
		}
		_, _, found, err := n.scanVault(h, entry, "account", op.Args[0])
		if err != nil {
			return nil, true, err
		}
		if !found {
			return nil, true, fmt.Errorf("corda: account %q not found", op.Args[0])
		}
		return nil, true, nil

	case op.IEL == iel.BankingAppName && op.Function == iel.FnTransactSavings:
		// The flow consumes the savings state and reissues it with the new
		// balance; concurrent flows on the same account race at the notary.
		if len(op.Args) != 2 {
			return nil, false, fmt.Errorf("corda: TransactSavings wants 2 args")
		}
		id := op.Args[0]
		ref, st, err := n.findState(h, entry, "savings", id)
		if err != nil {
			return nil, false, err
		}
		bal, amt, err := parseBalanceDelta(st.Value, op.Args[1])
		if err != nil {
			return nil, false, err
		}
		if bal+amt < 0 {
			return nil, false, fmt.Errorf("%w: %q savings %d, delta %d", iel.ErrInsufficientFunds, id, bal, amt)
		}
		utx := chain.NewUTXOTransaction(tx.Client, tx.Seq, op,
			[]chain.StateRef{ref},
			[]chain.ContractState{{Kind: "savings", Key: id, Value: formatBalance(bal + amt), Owner: tx.Client}})
		return utx, false, nil

	case op.IEL == iel.BankingAppName && op.Function == iel.FnDepositChecking:
		if len(op.Args) != 2 {
			return nil, false, fmt.Errorf("corda: DepositChecking wants 2 args")
		}
		id := op.Args[0]
		ref, st, err := n.findState(h, entry, "account", id)
		if err != nil {
			return nil, false, err
		}
		bal, amt, err := parseBalanceDelta(st.Value, op.Args[1])
		if err != nil || amt < 0 {
			return nil, false, fmt.Errorf("corda: bad deposit amount %q", op.Args[1])
		}
		utx := chain.NewUTXOTransaction(tx.Client, tx.Seq, op,
			[]chain.StateRef{ref},
			[]chain.ContractState{{Kind: "account", Key: id, Value: formatBalance(bal + amt), Owner: tx.Client}})
		return utx, false, nil

	case op.IEL == iel.BankingAppName && op.Function == iel.FnWriteCheck:
		// The check clears against checking + savings but only the checking
		// state is consumed and reissued.
		if len(op.Args) != 2 {
			return nil, false, fmt.Errorf("corda: WriteCheck wants 2 args")
		}
		id := op.Args[0]
		ref, st, err := n.findState(h, entry, "account", id)
		if err != nil {
			return nil, false, err
		}
		_, sav, err := n.findState(h, entry, "savings", id)
		if err != nil {
			return nil, false, err
		}
		checking, amt, err := parseBalanceDelta(st.Value, op.Args[1])
		if err != nil || amt < 0 {
			return nil, false, fmt.Errorf("corda: bad check amount %q", op.Args[1])
		}
		savings, _ := strconv.ParseInt(sav.Value, 10, 64)
		if checking+savings < amt {
			return nil, false, fmt.Errorf("%w: %q has %d, check for %d", iel.ErrInsufficientFunds, id, checking+savings, amt)
		}
		utx := chain.NewUTXOTransaction(tx.Client, tx.Seq, op,
			[]chain.StateRef{ref},
			[]chain.ContractState{{Kind: "account", Key: id, Value: formatBalance(checking - amt), Owner: tx.Client}})
		return utx, false, nil

	case op.IEL == iel.BankingAppName && op.Function == iel.FnAmalgamate:
		// Consumes three states across two accounts — the family's widest
		// notary conflict footprint.
		if len(op.Args) != 2 {
			return nil, false, fmt.Errorf("corda: Amalgamate wants 2 args")
		}
		src, dst := op.Args[0], op.Args[1]
		srcChkRef, srcChk, err := n.findState(h, entry, "account", src)
		if err != nil {
			return nil, false, err
		}
		srcSavRef, srcSav, err := n.findState(h, entry, "savings", src)
		if err != nil {
			return nil, false, err
		}
		dstRef, dstChk, err := n.findState(h, entry, "account", dst)
		if err != nil {
			return nil, false, err
		}
		sc, _ := strconv.ParseInt(srcChk.Value, 10, 64)
		ss, _ := strconv.ParseInt(srcSav.Value, 10, 64)
		dc, _ := strconv.ParseInt(dstChk.Value, 10, 64)
		utx := chain.NewUTXOTransaction(tx.Client, tx.Seq, op,
			[]chain.StateRef{srcChkRef, srcSavRef, dstRef},
			[]chain.ContractState{
				{Kind: "account", Key: src, Value: "0", Owner: tx.Client},
				{Kind: "savings", Key: src, Value: "0", Owner: tx.Client},
				{Kind: "account", Key: dst, Value: formatBalance(dc + sc + ss), Owner: tx.Client},
			})
		return utx, false, nil

	default:
		return nil, false, fmt.Errorf("corda: unsupported operation %s", op)
	}
}

// findStateOpt resolves one vault state for a write flow: like the Set
// duplicate check it pays the full scan cost without a read budget.
func (n *Network) findStateOpt(h clock.Handle, entry *node, kind, key string) (chain.StateRef, chain.ContractState, bool) {
	var (
		outRef chain.StateRef
		outSt  chain.ContractState
		found  bool
	)
	visited := entry.vault.LinearScan(func(ref chain.StateRef, st chain.ContractState) bool {
		if st.Kind == kind && st.Key == key {
			outRef, outSt, found = ref, st, true
			return true
		}
		return false
	})
	if cost := time.Duration(visited) * n.cfg.ScanCost; cost > 0 {
		h.Sleep(cost)
	}
	return outRef, outSt, found
}

// findState is findStateOpt for flows whose input must exist.
func (n *Network) findState(h clock.Handle, entry *node, kind, key string) (chain.StateRef, chain.ContractState, error) {
	ref, st, found := n.findStateOpt(h, entry, kind, key)
	if !found {
		return chain.StateRef{}, chain.ContractState{}, fmt.Errorf("%w: %q (%s)", iel.ErrAccountNotFound, key, kind)
	}
	return ref, st, nil
}

// parseBalanceDelta parses a stored balance and a delta argument.
func parseBalanceDelta(balance, delta string) (int64, int64, error) {
	bal, err := strconv.ParseInt(balance, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("corda: corrupt balance %q: %v", balance, err)
	}
	amt, err := strconv.ParseInt(delta, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("corda: bad amount %q", delta)
	}
	return bal, amt, nil
}

func formatBalance(v int64) string { return strconv.FormatInt(v, 10) }

// Preload implements systems.Preloader: setup operations are issued as
// genesis UTXO transactions applied identically to every vault, so the
// resulting state references agree network-wide and later flows can
// consume them. KeyValue Sets become kv states; CreateAccounts become an
// account (checking) plus a savings state.
func (n *Network) Preload(ops []chain.Operation) error {
	for i, op := range ops {
		var outputs []chain.ContractState
		switch {
		case op.IEL == iel.KeyValueName && op.Function == iel.FnSet && len(op.Args) == 2:
			outputs = []chain.ContractState{{Kind: "kv", Key: op.Args[0], Value: op.Args[1], Owner: "preload"}}
		case op.IEL == iel.BankingAppName && op.Function == iel.FnCreateAccount && len(op.Args) == 3:
			outputs = []chain.ContractState{
				{Kind: "account", Key: op.Args[0], Value: op.Args[1], Owner: "preload"},
				{Kind: "savings", Key: op.Args[0], Value: op.Args[2], Owner: "preload"},
			}
		default:
			return fmt.Errorf("corda preload op %d: unsupported operation %s", i, op)
		}
		utx := chain.NewUTXOTransaction("preload", uint64(i), op, nil, outputs)
		for _, nd := range n.nodes {
			if err := nd.vault.Apply(utx); err != nil {
				return fmt.Errorf("corda preload op %d: %w", i, err)
			}
		}
	}
	return nil
}

// errScanBudget marks a vault scan abandoned for exceeding ReadScanBudget.
var errScanBudget = fmt.Errorf("corda: vault scan exceeds read budget")

// scanVault linear-scans the entry node's vault and charges ScanCost per
// visited state — the paper's Corda read pathology. When ReadScanBudget is
// set and the vault holds more states than the flow can visit within its
// deadline, the scan is abandoned.
func (n *Network) scanVault(h clock.Handle, entry *node, kind, key string) (chain.StateRef, chain.ContractState, bool, error) {
	if b := n.cfg.ReadScanBudget; b > 0 && entry.vault.UnspentCount() > b {
		// The flow burns its whole budget before giving up.
		h.Sleep(time.Duration(b) * n.cfg.ScanCost)
		return chain.StateRef{}, chain.ContractState{}, false, errScanBudget
	}
	visited := 0
	var (
		outRef chain.StateRef
		outSt  chain.ContractState
		found  bool
	)
	visited = entry.vault.LinearScan(func(ref chain.StateRef, st chain.ContractState) bool {
		if st.Kind == kind && st.Key == key {
			outRef, outSt, found = ref, st, true
			return true
		}
		return false
	})
	if cost := time.Duration(visited) * n.cfg.ScanCost; cost > 0 {
		h.Sleep(cost)
	}
	return outRef, outSt, found, nil
}

func flowTxID(tx *chain.Transaction, utx *chain.UTXOTransaction) crypto.Hash {
	if utx != nil {
		return utx.ID
	}
	return tx.ID
}

func (n *Network) deadlineExceeded(started time.Time) bool {
	return n.cfg.Clock.Since(started) > n.cfg.FlowTimeout
}

// recordFailure counts one lost flow, classified by abort code for the
// conflict breakdown: notary/vault double spends become "double-spend",
// balance failures "insufficient-funds", everything else "flow-failed".
func (n *Network) recordFailure(err error) {
	code := systems.ClassifyAbort(err)
	if code == "" || code == systems.AbortExecFailed {
		code = systems.AbortFlowFailed
	}
	n.mu.Lock()
	n.failed++
	n.conflicts[code]++
	n.mu.Unlock()
}

// ConflictCounts implements systems.ConflictReporter: failed flows by abort
// code. Corda flows are single-operation, so flow counts equal payload
// counts.
func (n *Network) ConflictCounts() map[string]uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.conflicts) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(n.conflicts))
	for k, v := range n.conflicts {
		out[k] = v
	}
	return out
}

func (n *Network) recordTimeout() {
	n.mu.Lock()
	n.timeout++
	n.mu.Unlock()
}

// LossStats reports flows lost to queue overflow, deadline, and failure.
func (n *Network) LossStats() (dropped, timedOut, failed uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dropped, n.timeout, n.failed
}

// flowBacklog is the flows waiting in the nodes' mailboxes.
func (n *Network) flowBacklog() int {
	depth := 0
	for _, nd := range n.nodes {
		depth += nd.queue.Len()
	}
	return depth
}

// VaultSize reports node i's unspent state count.
func (n *Network) VaultSize(i int) int { return n.nodes[i%len(n.nodes)].vault.UnspentCount() }
