package fabric

import (
	"sync"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
)

// OrderingService selects Fabric's pluggable ordering backend. The paper
// compares the two (§5.4): Raft loses transactions under overload through
// "malfunctioning orderers", while Apache Kafka "produces overhead due to
// its architecture, which leads to slower processing of the transactions,
// but is much more mature" — no losses, higher latency.
type OrderingService int

// Ordering backends.
const (
	// OrderingRaft is the etcdraft ordering service (paper default).
	OrderingRaft OrderingService = iota
	// OrderingKafka is the Kafka-backed ordering service: a central
	// sequencing log with per-batch broker overhead and no loss.
	OrderingKafka
)

// kafkaBroker simulates the Kafka cluster behind Fabric's Kafka orderers:
// a single totally-ordered log. Batches are sequenced in arrival order
// after a fixed broker overhead; there is no election and no queue loss.
type kafkaBroker struct {
	clk      clock.Clock
	overhead time.Duration
	onDecide consensus.DecideFunc

	mu      sync.Mutex
	seq     uint64
	queue   []any
	running bool
	kick    *clock.Mailbox[struct{}]
	stop    *clock.Gate
	done    *clock.Gate
}

var _ consensus.Engine = (*kafkaBroker)(nil)

// newKafkaBroker builds the broker; overhead is charged per sequenced batch.
func newKafkaBroker(clk clock.Clock, overhead time.Duration, onDecide consensus.DecideFunc) *kafkaBroker {
	return &kafkaBroker{
		clk:      clk,
		overhead: overhead,
		onDecide: onDecide,
		kick:     clock.NewMailbox[struct{}](clk, 1),
		stop:     clock.NewGate(clk),
		done:     clock.NewGate(clk),
	}
}

// Start implements consensus.Engine.
func (k *kafkaBroker) Start() error {
	k.mu.Lock()
	if k.running {
		k.mu.Unlock()
		return nil
	}
	k.running = true
	k.mu.Unlock()
	clock.Fork(k.clk, 1)
	go k.run()
	return nil
}

// Stop implements consensus.Engine.
func (k *kafkaBroker) Stop(h clock.Handle) {
	k.mu.Lock()
	if !k.running {
		k.mu.Unlock()
		return
	}
	k.running = false
	k.mu.Unlock()
	k.stop.Close()
	h.Await(k.done)
}

// Submit implements consensus.Engine: the payload is appended to the log.
// Kafka never rejects — its durability is the paper's reason Fabric loses
// nothing on this backend. Sequencing happens on the broker's own actor, so
// the handle is unused.
func (k *kafkaBroker) Submit(_ clock.Handle, payload any) error {
	k.mu.Lock()
	if !k.running {
		k.mu.Unlock()
		return consensus.ErrNotRunning
	}
	k.queue = append(k.queue, payload)
	k.mu.Unlock()
	k.kick.TrySend(struct{}{})
	return nil
}

func (k *kafkaBroker) run() {
	h := clock.RegisterForked(k.clk, "fabric/kafka-broker")
	defer h.Close()
	defer k.done.Close()
	for {
		if i, _, _ := h.Await(k.stop, k.kick); i == 0 {
			return
		}
		for {
			k.mu.Lock()
			if len(k.queue) == 0 {
				k.mu.Unlock()
				break
			}
			payload := k.queue[0]
			k.queue = k.queue[1:]
			k.seq++
			seq := k.seq
			k.mu.Unlock()

			if k.overhead > 0 {
				// The broker round trip per sequenced batch. A stopped timer
				// is explicitly drained so no waiter leaks past teardown.
				t := k.clk.NewTimer(k.overhead)
				if i, _, _ := h.Await(k.stop, t); i == 0 {
					t.Stop()
					return
				}
			}
			if k.onDecide != nil {
				k.onDecide(h, consensus.Decision{
					Seq:       seq,
					Payload:   payload,
					Proposer:  "kafka-broker",
					DecidedAt: k.clk.Now(),
				})
			}
		}
	}
}
