package main

import (
	"fmt"
	"time"

	"repro/internal/loadgen"
	"repro/internal/netreg"
)

// loadFracs is the T-load offered-rate sweep, as fractions of the
// closed-loop probed peak.
var loadFracs = [...]float64{0.5, 0.75, 0.9}

// loadShape is the generator shape the T-load table runs with: enough
// connections and depth to saturate one core, a read-mostly mix.
var loadShape = loadgen.Config{
	Conns:    2,
	Depth:    256,
	ReadFrac: 0.9,
	Seed:     1,
}

// loadFloor is the tentpole acceptance bar: peak achieved multi-
// connection throughput must beat the single-connection depth-64 figure
// in BENCH_net.json (351K ops/s) by at least 3x on the same hardware.
const loadFloor = 3 * 351_000.0

// minEnforceOps is the smallest op count at which the floor is enforced:
// below it the measurement is noise-dominated (smoke tests run with ~50
// ops) and the table only reports.
const minEnforceOps = 2000

// loadTable runs the T-load table: a closed-loop probe finds peak
// throughput, then open-loop Poisson arrivals are stepped as fractions
// of that peak and the latency distribution — measured from each
// operation's SCHEDULED arrival, so queueing delay is charged, not
// hidden (no coordinated omission) — is reported per step. With ops at
// real scale the peak is held to the ≥3x-over-single-connection floor.
// The full tool with every knob (conns, depth, mix, zipf register
// spread, value sizes) is cmd/bloomload; this table is the compact
// CI-trended core of it.
func loadTable(ops int, jsonOut bool) error {
	srv, err := netreg.NewServer("127.0.0.1:0", "x", 1, nil)
	if err != nil {
		return err
	}
	defer srv.Close()

	cfg := loadShape
	cfg.Addr = srv.Addr()
	// Size each step so the probe retires roughly ops operations, with a
	// floor that keeps even smoke runs statistically non-degenerate.
	cfg.Duration = time.Duration(ops) * time.Microsecond
	if cfg.Duration < 250*time.Millisecond {
		cfg.Duration = 250 * time.Millisecond
	}

	steps, err := loadgen.Sweep(cfg, loadFracs[:])
	if err != nil {
		return err
	}

	fmt.Println("== T-load: open-loop saturation curve (Poisson arrivals, latency from scheduled arrival) ==")
	fmt.Println()
	fmt.Printf("%-10s %-13s %-13s %-9s %-10s %-10s %s\n",
		"step", "offered/s", "achieved/s", "backlog", "p50 us", "p99 us", "p999 us")
	var peak float64
	for _, s := range steps {
		if s.Load.AchievedPS > peak {
			peak = s.Load.AchievedPS
		}
		fmt.Printf("%-10s %-13.0f %-13.0f %-9.3f %-10.1f %-10.1f %.1f\n",
			s.Name, s.Load.OfferedPS, s.Load.AchievedPS, s.Load.BacklogFrac,
			s.P50Us, s.P99Us, s.P999Us)
	}
	fmt.Printf("\npeak achieved: %.0f ops/sec (floor at real op counts: %.0f)\n", peak, loadFloor)

	if ops >= minEnforceOps && peak < loadFloor {
		return fmt.Errorf("peak achieved %.0f ops/s is below the %.0f floor (3x single-connection depth-64)", peak, loadFloor)
	}

	if !jsonOut {
		return nil
	}
	doc := loadgen.BenchDoc{
		Conns:        cfg.Conns,
		Depth:        cfg.Depth,
		ReadFrac:     cfg.ReadFrac,
		ValueBytes:   1,
		Registers:    1,
		DurationSecs: cfg.Duration.Seconds(),
		PeakOpsPS:    peak,
		Steps:        steps,
	}
	if err := doc.WriteFile("BENCH_loadgen.json"); err != nil {
		return err
	}
	fmt.Println()
	fmt.Println("wrote BENCH_loadgen.json")
	return nil
}
