package network

import (
	"sync"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
)

func TestZeroLatency(t *testing.T) {
	if d := (ZeroLatency{}).Delay("a", "b"); d != 0 {
		t.Fatalf("ZeroLatency delay = %v, want 0", d)
	}
}

func TestConstantLatency(t *testing.T) {
	m := ConstantLatency{D: 5 * time.Millisecond}
	if d := m.Delay("a", "b"); d != 5*time.Millisecond {
		t.Fatalf("delay = %v, want 5ms", d)
	}
}

func TestNormalLatencyDistribution(t *testing.T) {
	m := PaperNetem(42)
	stats := MeasureLatency(m, 20000)
	if stats.Mean < 11*time.Millisecond || stats.Mean > 13*time.Millisecond {
		t.Fatalf("mean = %v, want ~12ms", stats.Mean)
	}
	if stats.Std < 1500*time.Microsecond || stats.Std > 2500*time.Microsecond {
		t.Fatalf("std = %v, want ~2ms", stats.Std)
	}
}

func TestNormalLatencyNeverNegative(t *testing.T) {
	// sigma larger than mu forces frequent negative draws before truncation.
	m := NewNormalLatency(time.Millisecond, 10*time.Millisecond, 1)
	for i := 0; i < 10000; i++ {
		if d := m.Delay("a", "b"); d < 0 {
			t.Fatalf("negative delay %v", d)
		}
	}
}

func TestNormalLatencyDeterministicPerSeed(t *testing.T) {
	a := NewNormalLatency(12*time.Millisecond, 2*time.Millisecond, 7)
	b := NewNormalLatency(12*time.Millisecond, 2*time.Millisecond, 7)
	for i := 0; i < 100; i++ {
		if a.Delay("x", "y") != b.Delay("x", "y") {
			t.Fatal("same seed must produce same delay sequence")
		}
	}
}

func TestAsymmetricLatency(t *testing.T) {
	a := NewAsymmetricLatency(ZeroLatency{})
	a.SetLink("n1", "n2", ConstantLatency{D: 9 * time.Millisecond})
	if d := a.Delay("n1", "n2"); d != 9*time.Millisecond {
		t.Fatalf("link delay = %v, want 9ms", d)
	}
	if d := a.Delay("n2", "n1"); d != 0 {
		t.Fatalf("reverse link delay = %v, want fallback 0", d)
	}
}

func TestMeasureLatencyEmpty(t *testing.T) {
	if s := MeasureLatency(ZeroLatency{}, 0); s.N != 0 {
		t.Fatalf("stats for n=0: %+v", s)
	}
}

func newTestTransport(t *testing.T) *Transport {
	t.Helper()
	tr := NewTransport(clock.New(), nil)
	t.Cleanup(func() { tr.Stop(clock.Handle{}) })
	return tr
}

func TestTransportDelivers(t *testing.T) {
	tr := newTestTransport(t)
	got := make(chan Message, 1)
	tr.Register("b", func(_ clock.Handle, m Message) { got <- m })

	if err := tr.Send("a", "b", "ping", 42); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.From != "a" || m.To != "b" || m.Kind != "ping" || m.Payload != 42 {
			t.Fatalf("unexpected message %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
}

func TestTransportUnknownEndpoint(t *testing.T) {
	tr := newTestTransport(t)
	err := tr.Send("a", "nope", "x", nil)
	if err == nil {
		t.Fatal("expected error for unknown endpoint")
	}
}

func TestTransportFIFOPerLink(t *testing.T) {
	tr := newTestTransport(t)
	var mu sync.Mutex
	var order []int
	done := make(chan struct{})
	tr.Register("dst", func(_ clock.Handle, m Message) {
		mu.Lock()
		order = append(order, m.Payload.(int))
		if len(order) == 100 {
			close(done)
		}
		mu.Unlock()
	})
	for i := 0; i < 100; i++ {
		if err := tr.Send("src", "dst", "seq", i); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("not all messages delivered")
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO violated)", i, v, i)
		}
	}
}

func TestTransportBroadcast(t *testing.T) {
	tr := newTestTransport(t)
	var mu sync.Mutex
	recv := map[string]int{}
	var wg sync.WaitGroup
	wg.Add(3)
	for _, name := range []string{"n1", "n2", "n3"} {
		name := name
		tr.Register(name, func(clock.Handle, Message) {
			mu.Lock()
			recv[name]++
			mu.Unlock()
			wg.Done()
		})
	}
	tr.Register("sender", func(clock.Handle, Message) { t.Error("sender must not receive its own broadcast") })

	if n := tr.Broadcast("sender", "hello", nil); n != 3 {
		t.Fatalf("broadcast reached %d endpoints, want 3", n)
	}
	waitDone(t, &wg)
	mu.Lock()
	defer mu.Unlock()
	for _, name := range []string{"n1", "n2", "n3"} {
		if recv[name] != 1 {
			t.Fatalf("%s received %d messages, want 1", name, recv[name])
		}
	}
}

func TestTransportCutAndHealLink(t *testing.T) {
	tr := newTestTransport(t)
	got := make(chan Message, 2)
	tr.Register("b", func(_ clock.Handle, m Message) { got <- m })

	tr.CutLink("a", "b")
	if err := tr.Send("a", "b", "x", nil); err == nil {
		t.Fatal("expected ErrLinkDown on cut link")
	}
	tr.HealLink("a", "b")
	if err := tr.Send("a", "b", "x", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("message not delivered after heal")
	}
}

func TestTransportIsolate(t *testing.T) {
	tr := newTestTransport(t)
	tr.Register("a", func(clock.Handle, Message) {})
	tr.Register("b", func(clock.Handle, Message) {})
	tr.Isolate("a")
	if err := tr.Send("a", "b", "x", nil); err == nil {
		t.Fatal("isolated node should not send")
	}
	if err := tr.Send("b", "a", "x", nil); err == nil {
		t.Fatal("isolated node should not receive")
	}
}

func TestTransportLatencyDelaysDelivery(t *testing.T) {
	tr := NewTransport(clock.New(), ConstantLatency{D: 50 * time.Millisecond})
	defer tr.Stop(clock.Handle{})
	got := make(chan time.Time, 1)
	tr.Register("b", func(clock.Handle, Message) { got <- time.Now() })
	start := time.Now()
	if err := tr.Send("a", "b", "x", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-got:
		if d := at.Sub(start); d < 45*time.Millisecond {
			t.Fatalf("delivered after %v, want >= ~50ms", d)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
}

func TestTransportStopRejectsSends(t *testing.T) {
	tr := NewTransport(clock.New(), nil)
	tr.Register("b", func(clock.Handle, Message) {})
	tr.Stop(clock.Handle{})
	if err := tr.Send("a", "b", "x", nil); err == nil {
		t.Fatal("expected ErrStopped")
	}
	// Stop must be idempotent.
	tr.Stop(clock.Handle{})
}

func TestTransportUnregister(t *testing.T) {
	tr := newTestTransport(t)
	tr.Register("b", func(clock.Handle, Message) {})
	tr.Unregister("b")
	if err := tr.Send("a", "b", "x", nil); err == nil {
		t.Fatal("expected error after unregister")
	}
}

func TestTransportStats(t *testing.T) {
	tr := newTestTransport(t)
	var wg sync.WaitGroup
	wg.Add(2)
	tr.Register("b", func(clock.Handle, Message) { wg.Done() })
	_ = tr.Send("a", "b", "x", nil)
	_ = tr.Send("a", "b", "x", nil)
	waitDone(t, &wg)
	sent, delivered, dropped := tr.Stats()
	if sent != 2 || delivered != 2 || dropped != 0 {
		t.Fatalf("stats = %d/%d/%d, want 2/2/0", sent, delivered, dropped)
	}
}

func TestTransportEndpoints(t *testing.T) {
	tr := newTestTransport(t)
	tr.Register("x", func(clock.Handle, Message) {})
	tr.Register("y", func(clock.Handle, Message) {})
	if got := len(tr.Endpoints()); got != 2 {
		t.Fatalf("endpoints = %d, want 2", got)
	}
}

func waitDone(t *testing.T, wg *sync.WaitGroup) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for deliveries")
	}
}

func TestTransportFIFOUnderRandomLatency(t *testing.T) {
	// Per-link FIFO must hold even when each message draws a random delay:
	// the delivery queue is serial per endpoint.
	tr := NewTransport(clock.New(), NewNormalLatency(500*time.Microsecond, 200*time.Microsecond, 99))
	defer tr.Stop(clock.Handle{})
	var mu sync.Mutex
	var order []int
	done := make(chan struct{})
	tr.Register("dst", func(_ clock.Handle, m Message) {
		mu.Lock()
		order = append(order, m.Payload.(int))
		if len(order) == 50 {
			close(done)
		}
		mu.Unlock()
	})
	for i := 0; i < 50; i++ {
		if err := tr.Send("src", "dst", "seq", i); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("messages not delivered")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d (FIFO violated under latency)", i, v)
		}
	}
}
