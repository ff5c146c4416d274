package pbft

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/network"
)

func newReplicas(t *testing.T, n int) ([]*Engine, *sync.Mutex, map[string][]consensus.Decision) {
	t.Helper()
	tr := network.NewTransport(clock.New(), nil)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("sawtooth-%d", i)
	}
	var mu sync.Mutex
	decided := make(map[string][]consensus.Decision)
	engines := make([]*Engine, n)
	for i, id := range names {
		id := id
		engines[i] = New(Config{
			ID:        id,
			Replicas:  names,
			Transport: tr,
			OnDecide: func(_ clock.Handle, d consensus.Decision) {
				mu.Lock()
				decided[id] = append(decided[id], d)
				mu.Unlock()
			},
			ViewTimeout: 200 * time.Millisecond,
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

func TestPBFTPrimaryIsSticky(t *testing.T) {
	engines, _, _ := newReplicas(t, 4)
	if !engines[0].IsPrimary() {
		t.Fatal("replica 0 must be the initial primary")
	}
	for _, e := range engines[1:] {
		if e.IsPrimary() {
			t.Fatal("multiple primaries")
		}
	}
}

func TestPBFTDecidesSequence(t *testing.T) {
	engines, mu, decided := newReplicas(t, 4)
	const total = 10
	for i := 0; i < total; i++ {
		if err := engines[0].Submit(clock.Handle{}, i); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		ok := true
		for i := 0; i < 4; i++ {
			if len(decided[fmt.Sprintf("sawtooth-%d", i)]) < total {
				ok = false
			}
		}
		mu.Unlock()
		if ok {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	ref := decided["sawtooth-0"]
	if len(ref) < total {
		t.Fatalf("primary decided %d, want %d", len(ref), total)
	}
	for i := 1; i < 4; i++ {
		ds := decided[fmt.Sprintf("sawtooth-%d", i)]
		if len(ds) < total {
			t.Fatalf("replica %d decided %d, want %d", i, len(ds), total)
		}
		for j := 0; j < total; j++ {
			if ds[j].Payload != ref[j].Payload {
				t.Fatalf("replica %d slot %d: %v != %v", i, j, ds[j].Payload, ref[j].Payload)
			}
			// All decisions come from the sticky primary at round 0.
			if ds[j].Proposer != "sawtooth-0" {
				t.Fatalf("slot %d proposer = %s, want sawtooth-0", j, ds[j].Proposer)
			}
		}
	}
}

func TestPBFTHeight(t *testing.T) {
	engines, _, _ := newReplicas(t, 4)
	if h := engines[0].Height(); h != 1 {
		t.Fatalf("height = %d", h)
	}
	if n := engines[0].PendingCount(); n != 0 {
		t.Fatalf("pending = %d", n)
	}
}
