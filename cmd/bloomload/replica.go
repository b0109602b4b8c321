package main

import (
	"fmt"

	"repro/internal/history"
	"repro/internal/loadgen"
	"repro/internal/netreg"
	"repro/internal/obs"
	"repro/internal/replica"
)

// startReplicaCluster hosts m in-process replica servers.
func startReplicaCluster(m int) ([]string, func(), error) {
	var addrs []string
	var servers []*netreg.Server
	closeAll := func() {
		for _, srv := range servers {
			srv.Close()
		}
	}
	for i := 0; i < m; i++ {
		st, err := netreg.NewStore("v0", 1, new(history.Sequencer))
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		srv, err := netreg.Serve("127.0.0.1:0", st)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	return addrs, closeAll, nil
}

// runReplica is bloomload's -replica mode: the cluster load generator
// over an in-process replicated register. It sweeps the engine's
// saturation curve, probes every protocol variant's peak with its
// rounds/op and combining accounting, and (with -json) writes
// BENCH_replica_load.json.
func runReplica(cfg loadgen.ClusterConfig, mode replica.Mode, fracs []float64, singleRate float64, jsonOut bool) error {
	addrs, closeAll, err := startReplicaCluster(len(cfg.Addrs))
	if err != nil {
		return err
	}
	defer closeAll()
	cfg.Addrs = addrs
	cfg.Mode = mode
	fmt.Printf("in-process %d-replica cluster, %d clients x depth %d, %.0f%% reads, %dB values\n\n",
		len(addrs), cfg.Clients, cfg.Depth, cfg.ReadFrac*100, cfg.ValueBytes)

	var steps []loadgen.Result
	if singleRate > 0 {
		stepCfg := cfg
		stepCfg.Rate = singleRate
		r, err := loadgen.RunCluster(stepCfg)
		if err != nil {
			return err
		}
		r.Name = "single"
		steps = []loadgen.Result{r}
	} else {
		if steps, err = loadgen.SweepCluster(cfg, fracs); err != nil {
			return err
		}
	}

	fmt.Printf("== %s saturation curve (engine) ==\n\n", mode)
	fmt.Printf("%-10s %-13s %-13s %-9s %-10s %-10s %s\n",
		"step", "offered/s", "achieved/s", "backlog", "p50 us", "p99 us", "p999 us")
	for _, s := range steps {
		fmt.Printf("%-10s %-13.0f %-13.0f %-9.3f %-10.1f %-10.1f %.1f\n",
			s.Name, s.Load.OfferedPS, s.Load.AchievedPS, s.Load.BacklogFrac,
			s.P50Us, s.P99Us, s.P999Us)
	}

	// Per-mode closed-loop probes: the protocol comparison with the
	// accounting that explains it.
	fmt.Printf("\n== protocol variants (closed-loop probes, engine) ==\n\n")
	fmt.Printf("%-8s %-13s %-10s %-12s %-14s %s\n",
		"mode", "ops/sec", "p99 us", "read rds/op", "combined frac", "elided")
	var modeRows []loadgen.ReplicaModeRow
	for _, m := range []replica.Mode{replica.ModeABD, replica.ModeFast} {
		row, err := probeReplicaMode(cfg, m)
		if err != nil {
			return fmt.Errorf("probing %s: %w", m, err)
		}
		modeRows = append(modeRows, row)
		fmt.Printf("%-8s %-13.0f %-10.1f %-12.2f %-14.3f %d\n",
			row.Mode, row.OpsPerSec, row.P99Us, row.ReadRoundsPerOp, row.CombinedFrac, row.ElidedReads)
	}

	if !jsonOut {
		return nil
	}
	doc := loadgen.ReplicaLoadDoc{
		Replicas:     len(addrs),
		Clients:      cfg.Clients,
		Depth:        cfg.Depth,
		ReadFrac:     cfg.ReadFrac,
		ValueBytes:   cfg.ValueBytes,
		DurationSecs: cfg.Duration.Seconds(),
		EnginePeak:   steps[0].Load.AchievedPS, // the closed-loop probe, or the single step
		Modes:        modeRows,
		Sweep:        steps,
	}
	if err := doc.WriteFile("BENCH_replica_load.json"); err != nil {
		return err
	}
	fmt.Println("\nwrote BENCH_replica_load.json")
	return nil
}

// probeReplicaMode runs one closed-loop probe against a fresh cluster in
// the given mode, returning the row with its quorum accounting.
func probeReplicaMode(cfg loadgen.ClusterConfig, mode replica.Mode) (loadgen.ReplicaModeRow, error) {
	addrs, closeAll, err := startReplicaCluster(len(cfg.Addrs))
	if err != nil {
		return loadgen.ReplicaModeRow{}, err
	}
	defer closeAll()
	tally := obs.NewReplica(len(addrs))
	cfg.Addrs = addrs
	cfg.Mode = mode
	cfg.Rate = 0
	cfg.Tally = tally
	r, err := loadgen.RunCluster(cfg)
	if err != nil {
		return loadgen.ReplicaModeRow{}, err
	}
	row := loadgen.ReplicaModeRow{
		Mode:        mode.String(),
		OpsPerSec:   r.Load.AchievedPS,
		P99Us:       r.P99Us,
		ElidedReads: tally.Elided(obs.QRead),
	}
	if ok := tally.Ok(obs.QRead); ok > 0 {
		row.ReadRoundsPerOp = float64(tally.Rounds(obs.QRead)) / float64(ok)
		row.CombinedFrac = float64(tally.Combined(obs.QRead)) / float64(ok)
	}
	return row, nil
}
