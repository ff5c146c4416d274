// Fixture for the goroutineid analyzer: caller identity comes from the
// clock.Handle an actor passes in, never from a stack dump, and parking
// calls go through that handle.
package fixture

import (
	"runtime"
	rt "runtime"
	"runtime/debug"

	"github.com/coconut-bench/coconut/internal/clock"
)

func stackDumps() {
	var buf [64]byte
	_ = runtime.Stack(buf[:], false) // want `stack dump outside diagnostics`
	_ = rt.Stack(buf[:], true)       // want `stack dump outside diagnostics`
	_ = debug.Stack()                // want `stack dump outside diagnostics`
}

func handleless(c clock.Clock, av *clock.AutoVirtual) {
	c.Sleep(1)  // want `handle-less Clock.Sleep panics under AutoVirtual`
	av.Sleep(1) // want `handle-less AutoVirtual.Sleep panics under AutoVirtual`
}

// The handle is the caller's identity: no findings.
func withHandle(h clock.Handle, stop *clock.Gate) int {
	h.Await(stop)
	h.Sleep(1)
	return runtime.NumGoroutine()
}
