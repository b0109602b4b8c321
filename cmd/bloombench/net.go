package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/netreg"
	"repro/internal/obs"
	"repro/internal/proof"
)

// netDepths is the pipeline-depth sweep: 1 is the serial baseline (one
// request on the wire at a time), the rest are concurrent callers sharing
// one connection.
var netDepths = [...]int{1, 8, 64}

// netRow is one cell of the pipeline-depth sweep.
type netRow struct {
	Depth      int     `json:"depth"`
	NsPerOp    float64 `json:"ns_per_op"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	BytesPerOp float64 `json:"bytes_per_op"` // both directions, framing included
}

// netFanOut summarizes the multi-register fan-out measurement: several
// registers hosted behind ONE listener, each hammered through its own
// pipelined connection.
type netFanOut struct {
	Registers int     `json:"registers"`
	Depth     int     `json:"depth"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

// netBench is the BENCH_net.json document.
type netBench struct {
	Ops       int       `json:"ops_per_measurement"`
	Rows      []netRow  `json:"sweep"`
	FanOut    netFanOut `json:"multi_register_fan_out"`
	Certified bool      `json:"pipelined_run_certified_atomic"`
}

// netTable runs the T-net measurements: single-connection write
// throughput across pipeline depth, aggregate throughput of a
// multi-register fan-out behind one listener, and a certified pipelined
// two-writer run. With jsonOut it writes BENCH_net.json.
func netTable(ops int, jsonOut bool) error {
	// Network round trips dwarf in-process accesses; cap like -faults so
	// the default -ops stays CI-sized, but keep enough ops that the
	// pipelined rows amortize their ramp-up.
	netOps := ops
	if netOps > 20000 {
		netOps = 20000
	}

	fmt.Println("== T-net: single-connection throughput by pipeline depth ==")
	fmt.Println()
	fmt.Printf("%-7s %-12s %-14s %s\n", "depth", "ns/op", "ops/sec", "bytes/op")

	var rows []netRow
	for _, depth := range netDepths {
		row, err := measureNet(netOps, depth)
		if err != nil {
			return fmt.Errorf("measuring depth %d: %w", depth, err)
		}
		rows = append(rows, row)
		fmt.Printf("%-7d %-12.0f %-14.0f %.1f\n",
			row.Depth, row.NsPerOp, row.OpsPerSec, row.BytesPerOp)
	}

	fan, err := measureFanOut(netOps)
	if err != nil {
		return fmt.Errorf("measuring fan-out: %w", err)
	}
	fmt.Println()
	fmt.Printf("multi-register fan-out: %d registers on ONE listener, depth %d each: %.0f ops/sec aggregate\n",
		fan.Registers, fan.Depth, fan.OpsPerSec)

	certified, err := certifiedPipelinedRun()
	if err != nil {
		return fmt.Errorf("certified pipelined run: %w", err)
	}
	cert := "pipelined two-writer run certified atomic (Section 7 linearizer)"
	if !certified {
		cert = "PIPELINED RUN CERTIFICATION FAILED"
	}
	fmt.Println()
	fmt.Println(cert)
	fmt.Println()
	fmt.Println("pipelining overlaps round trips on one connection: depth-d callers keep")
	fmt.Println("d requests in flight, the client batches their frames into one syscall,")
	fmt.Println("and the server answers a decoded burst with one flush.")

	if !certified {
		return fmt.Errorf("pipelined run failed certification")
	}

	if !jsonOut {
		return nil
	}
	doc := netBench{
		Ops:       netOps,
		Rows:      rows,
		FanOut:    fan,
		Certified: certified,
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_net.json", append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println()
	fmt.Println("wrote BENCH_net.json")
	return nil
}

// measureNet times ops writes against a live server over ONE connection,
// depth callers keeping requests in flight.
func measureNet(ops int, depth int) (netRow, error) {
	srv, err := netreg.NewServer("127.0.0.1:0", 0, 1, nil)
	if err != nil {
		return netRow{}, err
	}
	defer srv.Close()

	ws := obs.NewWire()
	c, err := netreg.Dial[int](srv.Addr(),
		netreg.WithTimeout(10*time.Second),
		netreg.WithWireStats(ws))
	if err != nil {
		return netRow{}, err
	}
	defer c.Close()

	per := ops / depth
	if per == 0 {
		per = 1
	}
	total := per * depth

	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	start := time.Now()
	for d := 0; d < depth; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := c.WriteErr(d*per + i); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}(d)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return netRow{}, firstErr
	}

	in, out := ws.Bytes()
	return netRow{
		Depth:      depth,
		NsPerOp:    float64(elapsed.Nanoseconds()) / float64(total),
		OpsPerSec:  float64(total) / elapsed.Seconds(),
		BytesPerOp: float64(in+out) / float64(total),
	}, nil
}

// measureFanOut hosts several registers behind one listener and hammers
// each through its own pipelined connection, reporting aggregate
// throughput — the multi-register hosting path under load.
func measureFanOut(ops int) (netFanOut, error) {
	const (
		registers = 4
		depth     = 8
	)
	st, err := netreg.NewStore(0, 1, nil)
	if err != nil {
		return netFanOut{}, err
	}
	names := make([]string, registers)
	names[0] = "" // the default register counts as one of the hosted set
	for i := 1; i < registers; i++ {
		names[i] = fmt.Sprintf("reg%d", i)
		if err := netreg.AddRegister(st, names[i], 0, 1, nil); err != nil {
			return netFanOut{}, err
		}
	}
	srv, err := netreg.Serve("127.0.0.1:0", st)
	if err != nil {
		return netFanOut{}, err
	}
	defer srv.Close()

	clients := make([]*netreg.Client[int], registers)
	for i, name := range names {
		clients[i], err = netreg.Dial[int](srv.Addr(),
			netreg.WithRegister(name),
			netreg.WithTimeout(10*time.Second))
		if err != nil {
			return netFanOut{}, err
		}
		defer clients[i].Close()
	}

	per := ops / (registers * depth)
	if per == 0 {
		per = 1
	}
	total := per * registers * depth

	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	start := time.Now()
	for i := range clients {
		for d := 0; d < depth; d++ {
			wg.Add(1)
			go func(c *netreg.Client[int], d int) {
				defer wg.Done()
				for k := 0; k < per; k++ {
					if _, err := c.WriteErr(d*per + k); err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						return
					}
				}
			}(clients[i], d)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return netFanOut{}, firstErr
	}
	return netFanOut{
		Registers: registers,
		Depth:     depth,
		OpsPerSec: float64(total) / elapsed.Seconds(),
	}, nil
}

// certifiedPipelinedRun drives the full two-writer protocol with every
// port of each node sharing ONE pipelined connection, then certifies the
// history: pipelining must not cost atomicity.
func certifiedPipelinedRun() (bool, error) {
	const (
		readers       = 2
		writesPerNode = 40
	)
	seq := new(history.Sequencer)
	type val = core.Tagged[string]

	servers := make([]*netreg.Server, 2)
	regs := make([]*netreg.Reg[val], 2)
	for i := range servers {
		srv, err := netreg.NewServer("127.0.0.1:0", val{Val: "v0"}, readers+1, seq)
		if err != nil {
			return false, err
		}
		defer srv.Close()
		servers[i] = srv
		if regs[i], err = netreg.NewSharedReg[val](srv.Addr(), readers+1,
			netreg.WithTimeout(10*time.Second)); err != nil {
			return false, err
		}
		defer regs[i].Close()
	}

	tw := core.New(readers, "v0",
		core.WithRegisters[string](regs[0], regs[1]),
		core.WithSequencer[string](seq),
		core.WithRecording[string]())

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := tw.Writer(i)
			for k := 0; k < writesPerNode; k++ {
				w.Write(fmt.Sprintf("w%d-%d", i, k))
			}
		}(i)
	}
	for j := 1; j <= readers; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			r := tw.Reader(j)
			for k := 0; k < writesPerNode; k++ {
				_ = r.Read()
			}
		}(j)
	}
	wg.Wait()

	_, certErr := proof.Certify(tw.Recorder().Trace("v0"))
	return certErr == nil, nil
}
