package network

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
)

// TestSchedulerDeterministicUnderVirtualClock: with a virtual clock and
// constant per-link latencies, the wheel delivers in exact (ready time,
// enqueue order) sequence, reproducibly across runs.
func TestSchedulerDeterministicUnderVirtualClock(t *testing.T) {
	run := func() []string {
		clk := clock.NewVirtual(time.Unix(100, 0))
		lat := NewAsymmetricLatency(ZeroLatency{})
		lat.SetLink("a", "dst", ConstantLatency{D: 30 * time.Millisecond})
		lat.SetLink("b", "dst", ConstantLatency{D: 10 * time.Millisecond})
		lat.SetLink("c", "dst", ConstantLatency{D: 20 * time.Millisecond})
		tr := NewTransport(clk, lat)
		defer tr.Stop(clock.Handle{})

		var mu sync.Mutex
		var order []string
		tr.Register("dst", func(_ clock.Handle, m Message) {
			mu.Lock()
			order = append(order, m.From+":"+m.Kind)
			mu.Unlock()
		})
		for i := 0; i < 3; i++ {
			kind := fmt.Sprintf("m%d", i)
			for _, src := range []string{"a", "b", "c"} {
				if err := tr.Send(src, "dst", kind, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		clk.Advance(40 * time.Millisecond)
		waitDelivered(t, tr, 9, 2*time.Second)
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), order...)
	}

	want := []string{
		"b:m0", "b:m1", "b:m2", // 10ms link, enqueue order
		"c:m0", "c:m1", "c:m2", // 20ms link
		"a:m0", "a:m1", "a:m2", // 30ms link
	}
	for attempt := 0; attempt < 3; attempt++ {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("attempt %d: delivered %d messages, want %d", attempt, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("attempt %d: order[%d] = %s, want %s (full: %v)", attempt, i, got[i], want[i], got)
			}
		}
	}
}

// TestPerLinkFIFOUnderMixedLatencies: per-directed-link FIFO must survive
// per-message random latency draws and concurrent senders — the ready-time
// clamp makes later sends on a link never overtake earlier ones.
func TestPerLinkFIFOUnderMixedLatencies(t *testing.T) {
	tr := NewTransport(clock.New(), NewNormalLatency(300*time.Microsecond, 300*time.Microsecond, 7))
	defer tr.Stop(clock.Handle{})

	const senders = 4
	const perSender = 150
	var mu sync.Mutex
	last := map[string]int{}
	var violations []string
	done := make(chan struct{})
	total := 0
	tr.Register("dst", func(_ clock.Handle, m Message) {
		mu.Lock()
		seq := m.Payload.(int)
		if prev, ok := last[m.From]; ok && seq <= prev {
			violations = append(violations, fmt.Sprintf("%s: %d after %d", m.From, seq, prev))
		}
		last[m.From] = seq
		total++
		if total == senders*perSender {
			close(done)
		}
		mu.Unlock()
	})

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			src := fmt.Sprintf("src%d", s)
			for i := 0; i < perSender; i++ {
				if err := tr.Send(src, "dst", "seq", i); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for deliveries")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(violations) > 0 {
		t.Fatalf("per-link FIFO violated %d times, e.g. %s", len(violations), violations[0])
	}
}

// TestQueueOverflowDropAccounting: a full endpoint queue rejects the send
// and counts the drop, without disturbing sent/lost accounting.
func TestQueueOverflowDropAccounting(t *testing.T) {
	// One-hour latency parks every message in the scheduler (far heap).
	tr := NewTransport(clock.New(), ConstantLatency{D: time.Hour})
	defer tr.Stop(clock.Handle{})
	tr.Register("dst", func(clock.Handle, Message) { t.Error("nothing should be delivered") })

	const excess = 50
	fails := 0
	var firstErr error
	for i := 0; i < endpointQueueDepth+excess; i++ {
		if err := tr.Send("src", "dst", "k", nil); err != nil {
			fails++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if fails != excess {
		t.Fatalf("rejected sends = %d, want %d (first err: %v)", fails, excess, firstErr)
	}
	sent, delivered, dropped := tr.Stats()
	if sent != endpointQueueDepth+excess {
		t.Fatalf("sent = %d, want %d", sent, endpointQueueDepth+excess)
	}
	if delivered != 0 {
		t.Fatalf("delivered = %d, want 0", delivered)
	}
	if dropped != excess {
		t.Fatalf("dropped = %d, want %d", dropped, excess)
	}
	if tr.LostCount() != 0 {
		t.Fatalf("lost = %d, want 0 (overflow is not link loss)", tr.LostCount())
	}
}

// TestDegradedLossDeterministicPerLink: loss draws come from a per-link
// seeded RNG, so the a→b loss sequence is identical whether or not other
// links carry (lossy) traffic in between. The seed's single global RNG
// could not guarantee this.
func TestDegradedLossDeterministicPerLink(t *testing.T) {
	run := func(interleave bool) int {
		tr := NewTransport(clock.New(), nil)
		defer tr.Stop(clock.Handle{})
		var fromA atomic.Int64
		tr.Register("b", func(_ clock.Handle, m Message) {
			if m.From == "a" {
				fromA.Add(1)
			}
		})
		tr.Register("a", func(clock.Handle, Message) {})
		tr.Register("c", func(clock.Handle, Message) {})
		tr.DegradeLink("a", "b", 0, 0.3)
		tr.DegradeLink("c", "b", 0, 0.5)

		const n = 2000
		for i := 0; i < n; i++ {
			if err := tr.Send("a", "b", "k", i); err != nil {
				t.Fatal(err)
			}
			if interleave && i%3 == 0 {
				_ = tr.Send("c", "b", "k", i)
			}
		}
		// Drain: all non-lost messages must be delivered.
		deadline := time.Now().Add(5 * time.Second)
		for {
			sent, delivered, dropped := tr.Stats()
			if delivered == sent-dropped {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("drain timeout: stats %d/%d/%d", sent, delivered, dropped)
			}
			time.Sleep(time.Millisecond)
		}
		return int(fromA.Load())
	}

	quiet := run(false)
	noisy := run(true)
	if quiet != noisy {
		t.Fatalf("a→b deliveries depend on unrelated traffic: %d vs %d", quiet, noisy)
	}
	if quiet == 0 || quiet == 2000 {
		t.Fatalf("implausible loss outcome: %d of 2000 delivered", quiet)
	}
}

// TestSchedulerStressRace mixes Send/Broadcast with concurrent link faults,
// endpoint churn, and a final Stop. Run under -race it checks the
// lock-free snapshot plumbing; the counter inequality holds because
// every accepted send is eventually delivered, dropped, or torn down.
func TestSchedulerStressRace(t *testing.T) {
	tr := NewTransport(clock.New(), NewNormalLatency(200*time.Microsecond, 100*time.Microsecond, 3))
	names := make([]string, 8)
	var received atomic.Int64
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
		tr.Register(names[i], func(clock.Handle, Message) { received.Add(1) })
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Senders.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src := names[rng.Intn(len(names))]
				if i%16 == 0 {
					tr.Broadcast(src, "burst", i)
					continue
				}
				dst := names[rng.Intn(len(names))]
				_ = tr.Send(src, dst, "msg", i) // ErrLinkDown etc. expected
			}
		}(g)
	}

	// Link chaos.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			a, b := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
			switch rng.Intn(5) {
			case 0:
				tr.CutLink(a, b)
			case 1:
				tr.HealLink(a, b)
			case 2:
				tr.DegradeLink(a, b, time.Duration(rng.Intn(300))*time.Microsecond, 0.2)
			case 3:
				tr.DegradeLink(a, b, 0, 0)
			case 4:
				tr.HealAll()
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Endpoint churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tr.Register("flappy", func(clock.Handle, Message) {})
			time.Sleep(200 * time.Microsecond)
			tr.Unregister("flappy")
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	tr.Stop(clock.Handle{})

	sent, delivered, dropped := tr.Stats()
	if delivered+dropped > sent {
		t.Fatalf("impossible counters: sent=%d delivered=%d dropped=%d", sent, delivered, dropped)
	}
	if sent == 0 || delivered == 0 {
		t.Fatalf("stress produced no traffic: sent=%d delivered=%d", sent, delivered)
	}
	// Sends rejected post-Stop must keep failing.
	if err := tr.Send(names[0], names[1], "late", nil); err != ErrStopped {
		t.Fatalf("send after stop: err = %v, want ErrStopped", err)
	}
}

// TestSchedulerExactVirtualAdvanceDelivers advances the virtual clock in
// steps landing exactly on a message's ready time. The worker may be
// arming its timer concurrently with any step; because deadlines are
// absolute (clock.NewTimerAt), no interleaving can oversleep the due time.
func TestSchedulerExactVirtualAdvanceDelivers(t *testing.T) {
	for i := 0; i < 20; i++ {
		clk := clock.NewVirtual(time.Unix(0, 0))
		tr := NewTransport(clk, ConstantLatency{D: 10 * time.Millisecond})
		got := make(chan Message, 1)
		tr.Register("dst", func(_ clock.Handle, m Message) { got <- m })
		if err := tr.Send("src", "dst", "k", i); err != nil {
			t.Fatal(err)
		}
		clk.Advance(5 * time.Millisecond)
		clk.Advance(5 * time.Millisecond) // lands exactly on the ready time
		select {
		case <-got:
		case <-time.After(2 * time.Second):
			t.Fatalf("iteration %d: message due exactly at the advanced instant never delivered", i)
		}
		tr.Stop(clock.Handle{})
	}
}
