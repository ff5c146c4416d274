package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/experiments"
)

// setupProbes is how many fresh processes an end-to-end run starts after
// each pass to time set-up; setup_s is the median over the run.
const setupProbes = 3

// probeStarted is the line a probe process prints when its first cell
// starts simulating.
const probeStarted = "started"

// measureSetup starts this program setupProbes times in probe mode and
// times each from process start until it reports that the workload's
// first cell has started simulating: executable load, runtime and package
// initialisation, scenario lookup, cell split, and the engine's
// validation and expansion of the first cell.
func measureSetup(w workload, seed int64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("setup probe: %w", err)
	}
	var times []float64
	for i := 0; i < setupProbes; i++ {
		d, err := probeOnce(exe, w, seed)
		if err != nil {
			return nil, err
		}
		times = append(times, d)
	}
	return times, nil
}

func probeOnce(exe string, w workload, seed int64) (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), cellTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10), "--setup-probe")
	cmd.Stderr = io.Discard
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	t0 := clock.Walltime()
	if err := cmd.Start(); err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	line, readErr := bufio.NewReader(out).ReadString('\n')
	d := clock.Walltime().Sub(t0)
	waitErr := cmd.Wait()
	switch {
	case line != probeStarted+"\n":
		return 0, fmt.Errorf("setup probe: no start event (read: %v, exit: %v)", readErr, waitErr)
	case waitErr != nil:
		return 0, fmt.Errorf("setup probe: %w", waitErr)
	}
	return d.Seconds(), nil
}

// runSetupProbe is the probe process: it starts the workload's first cell
// and exits as soon as the cell starts simulating.
func runSetupProbe(sc experiments.Scenario, o experiments.Options, stdout io.Writer) error {
	o.Progress = func(p experiments.Progress) {
		if p.Result == nil {
			fmt.Fprintln(stdout, probeStarted)
			os.Exit(0)
		}
	}
	if _, err := experiments.Run(context.Background(), unitScenarios(sc)[0], o); err != nil {
		return err
	}
	return errors.New("first cell finished without a start event")
}
