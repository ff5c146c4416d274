package network

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/coconut-bench/coconut/internal/clock"
)

func BenchmarkTransportSendDeliver(b *testing.B) {
	tr := NewTransport(clock.New(), nil)
	defer tr.Stop(clock.Handle{})
	var wg sync.WaitGroup
	tr.Register("sink", func(clock.Handle, Message) { wg.Done() })
	payload := &benchPayload{seq: 1}
	b.ReportAllocs()
	b.ResetTimer()
	wg.Add(b.N)
	for i := 0; i < b.N; i++ {
		// A full queue models socket-buffer exhaustion; a real sender
		// blocks on the socket, so apply backpressure and retry.
		for tr.Send("src", "sink", "bench", payload) != nil {
			runtime.Gosched()
		}
	}
	wg.Wait()
}

// benchPayload mimics what the drivers actually put on the wire: a pointer
// to a message struct, not a boxed scalar.
type benchPayload struct{ seq uint64 }

// BenchmarkTransportSendParallel measures contention between independent
// senders, the pattern the seven drivers generate: every consensus engine
// and gossip endpoint sends concurrently on its own links.
func BenchmarkTransportSendParallel(b *testing.B) {
	tr := NewTransport(clock.New(), nil)
	defer tr.Stop(clock.Handle{})
	var wg sync.WaitGroup
	const sinks = 8
	for i := 0; i < sinks; i++ {
		tr.Register(fmt.Sprintf("sink-%d", i), func(clock.Handle, Message) { wg.Done() })
	}
	var next int
	var mu sync.Mutex
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		id := next
		next++
		mu.Unlock()
		src := fmt.Sprintf("src-%d", id)
		dst := fmt.Sprintf("sink-%d", id%sinks)
		payload := &benchPayload{seq: uint64(id)}
		for pb.Next() {
			wg.Add(1)
			for tr.Send(src, dst, "bench", payload) != nil {
				runtime.Gosched()
			}
		}
	})
	wg.Wait()
}

func BenchmarkTransportBroadcast(b *testing.B) {
	tr := NewTransport(clock.New(), nil)
	defer tr.Stop(clock.Handle{})
	var wg sync.WaitGroup
	for _, name := range []string{"n1", "n2", "n3", "n4"} {
		tr.Register(name, func(clock.Handle, Message) { wg.Done() })
	}
	payload := &benchPayload{seq: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wg.Add(4)
		// Under sustained overload a send can hit a full queue (kernel
		// buffer exhaustion); count only what was actually scheduled.
		if n := tr.Broadcast("src", "bench", payload); n != 4 {
			wg.Add(n - 4)
		}
	}
	wg.Wait()
}

func BenchmarkNormalLatencyDraw(b *testing.B) {
	m := PaperNetem(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Delay("a", "b")
	}
}
