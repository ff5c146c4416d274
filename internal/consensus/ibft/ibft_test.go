package ibft

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/network"
)

func newValidators(t *testing.T, n int) ([]*Engine, *sync.Mutex, map[string][]consensus.Decision) {
	t.Helper()
	tr := network.NewTransport(clock.New(), nil)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("quorum-%d", i)
	}
	var mu sync.Mutex
	decided := make(map[string][]consensus.Decision)
	engines := make([]*Engine, n)
	for i, id := range names {
		id := id
		engines[i] = New(Config{
			ID:         id,
			Validators: names,
			Transport:  tr,
			OnDecide: func(_ clock.Handle, d consensus.Decision) {
				mu.Lock()
				decided[id] = append(decided[id], d)
				mu.Unlock()
			},
			RoundTimeout: 200 * time.Millisecond,
		})
		if err := engines[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, e := range engines {
			e.Stop(clock.Handle{})
		}
		tr.Stop(clock.Handle{})
	})
	return engines, &mu, decided
}

func TestIBFTDecides(t *testing.T) {
	engines, mu, decided := newValidators(t, 4)
	for _, e := range engines {
		if e.IsProposer() {
			if err := e.Submit(clock.Handle{}, "block-1"); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		all := len(decided) == 4
		for _, ds := range decided {
			all = all && len(ds) >= 1
		}
		mu.Unlock()
		if all {
			mu.Lock()
			defer mu.Unlock()
			for id, ds := range decided {
				if ds[0].Payload != "block-1" {
					t.Fatalf("%s decided %v", id, ds[0].Payload)
				}
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("not all validators decided")
}

func TestIBFTProposerRotates(t *testing.T) {
	engines, mu, decided := newValidators(t, 4)
	// Decide two blocks and verify the proposer differs (round robin per
	// height).
	for i := 0; i < 2; i++ {
		for _, e := range engines {
			if e.IsProposer() {
				if err := e.Submit(clock.Handle{}, fmt.Sprintf("b%d", i)); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			mu.Lock()
			n := len(decided["quorum-0"])
			mu.Unlock()
			if n > i {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	ds := decided["quorum-0"]
	if len(ds) < 2 {
		t.Fatalf("decided %d blocks, want 2", len(ds))
	}
	if ds[0].Proposer == ds[1].Proposer {
		t.Fatalf("proposer did not rotate: %s then %s", ds[0].Proposer, ds[1].Proposer)
	}
}

func TestIBFTHeightAccessor(t *testing.T) {
	engines, _, _ := newValidators(t, 4)
	if h := engines[0].Height(); h != 1 {
		t.Fatalf("initial height = %d, want 1", h)
	}
	if n := engines[0].PendingCount(); n != 0 {
		t.Fatalf("initial pending = %d", n)
	}
}
