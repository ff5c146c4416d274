package clock

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// mustPanic runs f and returns the panic message, failing the test when f
// returns normally.
func mustPanic(t *testing.T, what string, f func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f()
		t.Fatalf("%s did not panic", what)
	}()
	return msg
}

// TestHandleWithoutTokenPanics checks the identity contract: a handle is
// only good while its actor holds the execution token, so a parking call
// through another actor's handle panics, naming that actor.
func TestHandleWithoutTokenPanics(t *testing.T) {
	av := NewAutoVirtual()
	holder := Register(av, "holder")
	release := NewGate(av)
	handles := make(chan Handle, 1)
	done := make(chan struct{})
	Fork(av, 1)
	go func() {
		defer close(done)
		h := RegisterForked(av, "other")
		defer h.Close()
		handles <- h
		h.Await(release)
	}()
	holder.Sleep(time.Millisecond) // the other actor runs and parks
	other := <-handles

	gate := NewGate(av)
	mb := NewMailbox[int](av, 1)
	g := NewGroup(av)
	g.Add(1)
	for what, f := range map[string]func(){
		"Await":        func() { other.Await(gate) },
		"Sleep":        func() { other.Sleep(time.Second) },
		"Mailbox.Send": func() { mb.Send(other, 1, nil) },
		"Group.Wait":   func() { g.Wait(other) },
	} {
		if msg := mustPanic(t, what, f); !strings.Contains(msg, "other") || !strings.Contains(msg, what) {
			t.Errorf("%s through a parked actor's handle: panic %q does not name the actor and call", what, msg)
		}
	}
	mustPanic(t, "Mailbox.Send with the zero Handle", func() { mb.Send(Handle{}, 1, nil) })
	mustPanic(t, "Await with the zero Handle on an AutoVirtual mailbox", func() { Handle{}.Await(mb) })

	// The clock is still usable: the holder's own handle works.
	if !mb.Send(holder, 1, nil) {
		t.Fatal("Send through the token holder's handle failed")
	}
	release.Close()
	holder.Close()
	<-done
}

// TestAutoVirtualHandlelessPanics pins that the handle-less Sleep and a
// Handle without an actor refuse an AutoVirtual clock, as After already
// does, instead of blocking on a bare channel.
func TestAutoVirtualHandlelessPanics(t *testing.T) {
	av := NewAutoVirtual()
	mustPanic(t, "AutoVirtual.Sleep", func() { av.Sleep(time.Second) })
	for what, src := range map[string]Waitable{
		"Gate":   NewGate(av),
		"Timer":  av.NewTimer(time.Second),
		"Ticker": av.NewTicker(time.Second),
	} {
		mustPanic(t, "zero-Handle Await on an AutoVirtual "+what, func() { Handle{}.Await(src) })
		mustPanic(t, "real-clock Handle Await on an AutoVirtual "+what, func() { Register(New(), "real").Await(src) })
	}
}

// mailboxScript drives one fixed sequence of Send, TrySend, Await,
// park-at-capacity, abort, Close and drain through a capacity-2 mailbox on
// c and logs every observable result. A second actor sends into the full
// mailbox, so its Sends park until the script drains a slot.
func mailboxScript(c Clock) []string {
	h := Register(c, "script")
	defer h.Close()
	var log []string
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	await := func(srcs ...Waitable) {
		i, v, ok := h.Await(srcs...)
		logf("await %d %v %v", i, v, ok)
	}

	mb := NewMailbox[int](c, 2)
	stop := NewGate(c)
	logf("trysend 1 %v", mb.TrySend(1))
	logf("send 2 %v", mb.Send(h, 2, nil))
	logf("trysend 3 %v", mb.TrySend(3))
	logf("len %d", mb.Len())

	var sent []bool
	g := NewGroup(c)
	g.Add(1)
	Fork(c, 1)
	go func() {
		sh := RegisterForked(c, "sender")
		defer sh.Close()
		defer g.Done()
		for v := 3; v <= 5; v++ {
			sent = append(sent, mb.Send(sh, v, stop))
		}
	}()
	// Wait until the sender has refilled the mailbox and parked on 5 (the
	// drained slots admit 3 and 4); under AutoVirtual one sleep suffices.
	await(mb)
	await(mb)
	for mb.Len() < 2 {
		h.Sleep(time.Millisecond)
	}
	stop.Close() // aborts the parked Send of 5
	g.Wait(h)
	logf("sender %v", sent)
	await(mb)
	await(mb)

	mb.Close()
	logf("trysend closed %v", mb.TrySend(6))
	logf("send closed %v", mb.Send(h, 6, nil))
	await(mb)
	logf("len %d", mb.Len())
	return log
}

// TestMailboxScriptSameOnRealAndAutoVirtual runs the mailbox script on the
// wall clock's channel path and on the AutoVirtual slice queue: every
// observable result must match.
func TestMailboxScriptSameOnRealAndAutoVirtual(t *testing.T) {
	real, auto := mailboxScript(New()), mailboxScript(NewAutoVirtual())
	if fmt.Sprint(real) != fmt.Sprint(auto) {
		t.Fatalf("mailbox script diverged:\n real %q\n auto %q", real, auto)
	}
	want := "[trysend 1 true send 2 true trysend 3 false len 2 await 0 1 true await 0 2 true " +
		"sender [true true false] await 0 3 true await 0 4 true " +
		"trysend closed false send closed false await 0 0 false len 0]"
	if got := fmt.Sprint(auto); got != want {
		t.Fatalf("mailbox script = %s\nwant %s", got, want)
	}
}

// TestNewMailboxAutoVirtualAllocatesLazily pins that a large bound is free
// until used: the AutoVirtual queue grows on demand instead of
// preallocating a channel buffer of the full capacity.
func TestNewMailboxAutoVirtualAllocatesLazily(t *testing.T) {
	type message struct {
		from, to, kind string
		payload        any
		at             time.Time
	}
	av := NewAutoVirtual()
	// TotalAlloc is process-wide, so a goroutine left running by an earlier
	// test can add to one reading; the fewest bytes over a few tries is the
	// constructor's own cost.
	least := uint64(math.MaxUint64)
	for try := 0; try < 5; try++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		mb := NewMailbox[message](av, 8192)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(mb)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 4096 {
		t.Fatalf("NewMailbox(av, 8192) allocated %d bytes, want < 4096", least)
	}
}

// TestMailboxBacklogNearCapacity keeps an AutoVirtual mailbox one value
// short of its bound while values stream through it: order stays FIFO and
// the backing array stays within a small multiple of the capacity.
func TestMailboxBacklogNearCapacity(t *testing.T) {
	const capacity = 64
	av := NewAutoVirtual()
	h := Register(av, "pump")
	defer h.Close()
	mb := NewMailbox[int](av, capacity)
	next, want := 0, 0
	for ; next < capacity-1; next++ {
		mb.TrySend(next)
	}
	for ; next < 100*capacity; next++ {
		if !mb.TrySend(next) {
			t.Fatalf("TrySend(%d) refused with %d queued", next, mb.Len())
		}
		if _, v, _ := h.Await(mb); v != want {
			t.Fatalf("received %v, want %d", v, want)
		}
		want++
		if c := cap(mb.q); c > 4*capacity {
			t.Fatalf("backing array grew to %d for a bound of %d", c, capacity)
		}
	}
}

// BenchmarkActorPingPong measures one round trip between two actors over a
// pair of mailboxes on AutoVirtual: two Sends, two Awaits and two token
// handoffs per iteration.
func BenchmarkActorPingPong(b *testing.B) {
	av := NewAutoVirtual()
	ping, pong := NewMailbox[int](av, 1), NewMailbox[int](av, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	Fork(av, 1)
	go func() {
		defer wg.Done()
		h := RegisterForked(av, "pong")
		defer h.Close()
		for {
			_, v, ok := h.Await(ping)
			if !ok {
				return
			}
			pong.Send(h, v.(int), nil)
		}
	}()
	h := Register(av, "ping")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ping.Send(h, i, nil)
		h.Await(pong)
	}
	b.StopTimer()
	ping.Close()
	h.Close()
	wg.Wait()
}

// BenchmarkAwaitReady measures Await on an already-ready source: the
// identity check and readiness scan, with no park.
func BenchmarkAwaitReady(b *testing.B) {
	av := NewAutoVirtual()
	h := Register(av, "waiter")
	defer h.Close()
	ready := NewGate(av)
	ready.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Await(ready)
	}
}
