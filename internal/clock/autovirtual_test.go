package clock

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestAutoVirtualAdvancesOnQuiescence checks the core contract: a lone actor
// sleeping on the clock never blocks on wall time — the clock jumps straight
// to the deadline.
func TestAutoVirtualAdvancesOnQuiescence(t *testing.T) {
	av := NewAutoVirtual()
	done := make(chan time.Duration, 1)
	go func() {
		h := Register(av, "sleeper")
		defer h.Close()
		start := av.Now()
		av.Sleep(10 * time.Hour)
		done <- av.Now().Sub(start)
	}()
	select {
	case d := <-done:
		if d != 10*time.Hour {
			t.Fatalf("slept %v of simulated time, want 10h", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("virtual 10h sleep did not complete within 5s of wall time")
	}
	if got := av.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters = %d after sleep, want 0", got)
	}
}

// TestAutoVirtualDeadlockDetection parks two actors with nothing on the
// heap and checks the diagnostic names every parked actor.
func TestAutoVirtualDeadlockDetection(t *testing.T) {
	av := NewAutoVirtual()
	msgs := make(chan string, 1)
	av.SetDeadlockHandler(func(m string) { msgs <- m })
	never := NewGate(av)
	names := []string{"idle-beta", "idle-alpha"}
	Fork(av, len(names))
	for _, name := range names {
		go func(name string) {
			h := RegisterForked(av, name)
			defer h.Close()
			Await(av, never) // never closes: guaranteed deadlock
		}(name)
	}
	select {
	case m := <-msgs:
		if !strings.Contains(m, "deadlock") ||
			!strings.Contains(m, "idle-alpha, idle-beta") {
			t.Fatalf("deadlock message missing sorted actor list: %q", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock was not detected within 5s")
	}
}

// TestAutoVirtualSameInstantTickersDeterministic starts actors in a
// deliberately scrambled order; their tickers all fire at the same simulated
// instants, and the tie-break must order fires by actor name, not by the OS
// scheduling accident of who registered first.
func TestAutoVirtualSameInstantTickersDeterministic(t *testing.T) {
	const rounds = 5
	names := []string{"node-3", "node-1", "node-4", "node-2"}
	run := func() []string {
		av := NewAutoVirtual()
		var mu sync.Mutex // guards log across Append-time reallocation
		var log []string
		var wg sync.WaitGroup
		Fork(av, len(names))
		for _, name := range names {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				h := RegisterForked(av, name)
				defer h.Close()
				tick := av.NewTicker(10 * time.Millisecond)
				defer tick.Stop()
				for i := 0; i < rounds; i++ {
					Await(av, tick)
					mu.Lock()
					log = append(log, name)
					mu.Unlock()
				}
			}(name)
		}
		wg.Wait()
		return log
	}
	got := run()
	var want []string
	for i := 0; i < rounds; i++ {
		want = append(want, "node-1", "node-2", "node-3", "node-4")
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("tick order not name-deterministic:\n got %v\nwant %v", got, want)
	}
	if again := run(); fmt.Sprint(again) != fmt.Sprint(got) {
		t.Fatalf("two identical runs diverged:\n run1 %v\n run2 %v", got, again)
	}
}

// TestAutoVirtualRegisterChurn hammers register/park/close from many
// goroutines at once; run under -race this validates the scheduler's locking
// around actor lifetime and the mailbox/gate wake paths.
func TestAutoVirtualRegisterChurn(t *testing.T) {
	av := NewAutoVirtual()
	const workers = 12
	mbox := NewMailbox[int](av, 4)
	stop := NewGate(av)
	var wg sync.WaitGroup

	Fork(av, workers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := RegisterForked(av, "producer")
		defer h.Close()
		for i := 0; i < 4*workers; i++ {
			av.Sleep(time.Millisecond)
			if !mbox.Send(i, stop) {
				return
			}
		}
		mbox.Close()
	}()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := RegisterForked(av, fmt.Sprintf("consumer-%d", i))
			defer h.Close()
			for {
				av.Sleep(time.Duration(i+1) * time.Millisecond)
				if _, _, ok := Await(av, mbox); !ok {
					return
				}
			}
		}(i)
	}
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(10 * time.Second):
		t.Fatal("churn run did not drain within 10s of wall time")
	}
	if got := av.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters = %d after churn, want 0", got)
	}
}

// TestAutoVirtualAfterPanics locks in the guard against the one blocking
// idiom the scheduler cannot see through.
func TestAutoVirtualAfterPanics(t *testing.T) {
	av := NewAutoVirtual()
	defer func() {
		if recover() == nil {
			t.Fatal("AutoVirtual.After did not panic")
		}
	}()
	av.After(time.Second)
}

// TestAutoVirtualGroupJoin checks Group.Wait parks instead of spinning and
// observes all Done calls.
func TestAutoVirtualGroupJoin(t *testing.T) {
	av := NewAutoVirtual()
	g := NewGroup(av)
	g.Add(3)
	res := make(chan time.Time, 1)
	Fork(av, 4)
	go func() {
		h := RegisterForked(av, "joiner")
		defer h.Close()
		g.Wait()
		res <- av.Now()
	}()
	for i := 0; i < 3; i++ {
		go func(i int) {
			h := RegisterForked(av, fmt.Sprintf("member-%d", i))
			defer h.Close()
			defer g.Done()
			av.Sleep(time.Duration(i+1) * time.Second)
		}(i)
	}
	select {
	case at := <-res:
		if want := SimEpoch.Add(3 * time.Second); !at.Equal(want) {
			t.Fatalf("join finished at %v, want %v", at, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Group.Wait did not return within 5s of wall time")
	}
}

// TestForkWaveReleaseIgnoresRegistrationTiming pins the fork-wave release
// point: a completed wave joins the run queue at the next scheduling point,
// behind the actors already queued. Whether the OS runs the wave's last
// child before or after the token holder wakes another actor must not
// change the grant order.
func TestForkWaveReleaseIgnoresRegistrationTiming(t *testing.T) {
	run := func(childFirst bool) []string {
		av := NewAutoVirtual()
		var mu sync.Mutex
		var order []string
		record := func(name string) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}
		awaitActors := func(n int) {
			deadline := time.Now().Add(5 * time.Second)
			for {
				av.mu.Lock()
				got := len(av.auto.actors)
				av.mu.Unlock()
				if got == n {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d actors registered, want %d", got, n)
				}
				time.Sleep(time.Millisecond)
			}
		}
		var wg sync.WaitGroup
		wake := NewGate(av)

		parent := Register(av, "parent") // sole actor: holds the token
		Fork(av, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := RegisterForked(av, "waiter")
			defer h.Close()
			Await(av, wake)
			record("waiter")
		}()
		av.Sleep(time.Millisecond) // the waiter runs and parks on the gate

		Fork(av, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := RegisterForked(av, "child")
			defer h.Close()
			record("child")
		}()
		if childFirst {
			awaitActors(3) // the wave completes while the parent holds the token
			wake.Close()
		} else {
			wake.Close()
			awaitActors(3)
		}
		parent.Close()
		wg.Wait()
		return order
	}
	before, after := run(true), run(false)
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Fatalf("grant order depends on when the wave completed:\n wave before wake %v\n wave after wake  %v", before, after)
	}
	if want := "[waiter child]"; fmt.Sprint(before) != want {
		t.Fatalf("grant order = %v, want %s (the queued waiter ahead of the wave)", before, want)
	}
}
