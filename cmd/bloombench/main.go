// Command bloombench regenerates the repository's experiment tables
// (EXPERIMENTS.md): the Section 5 cost claims measured on live traffic
// (T-cost), wait-freedom under crashes (T-wf), a quick latency profile
// against the locked baseline and the MRMW construction (T-perf), and the
// substrate sweep comparing the certifiable mutex registers against the
// lock-free Pointer and Seqlock substrates.
//
// Usage:
//
//	bloombench [-ops N] [-json]
//	bloombench -faults [-ops N] [-json]
//	bloombench -net [-ops N] [-json]
//	bloombench -serve :8080
//
// With -json, the substrate sweep is also written to BENCH_substrates.json
// and the observability sweep to BENCH_obs.json in the current directory
// for machine consumption (CI trend lines).
//
// With -faults, bloombench instead runs the T-fault table: networked
// round-trip latency with and without injected delay, then the two-writer
// protocol over seeded faulty links (drops, severed connections) with
// retrying clients, certifying the recovered history with proof.Certify.
// Combined with -json it writes BENCH_fault.json.
//
// With -net, bloombench instead runs the T-net table: single-connection
// write throughput swept across pipeline depth (1, 8, 64), a
// multi-register fan-out behind one listener, and a certified pipelined
// two-writer run. Combined with -json it writes BENCH_net.json.
//
// With -load, bloombench instead runs the T-load table: the open-loop
// saturation curve (closed-loop peak probe, then Poisson arrivals
// stepped as fractions of the peak, latency measured from scheduled
// arrivals). At real op counts it enforces the raw-speed campaign's ≥3x
// bar over the single-connection depth-64 figure. Combined with -json it
// writes BENCH_loadgen.json. The full generator with every knob is
// cmd/bloomload.
//
// With -certify, bloombench instead runs the T-certify table: a journaled
// load-generator run checked offline as one history (internal/linz), the
// online windowed checker shadowing an open-loop run at half peak, the
// journal tap's hot-path overhead, the seeded faulty pipelined two-writer
// run certified atomic online, and a synthetic non-atomic history that
// must fail — its timeline is rendered to LINZ_violation.html. Combined
// with -json it writes BENCH_certify.json.
//
// With -serve, bloombench instead runs an open-ended observed workload
// over every substrate and serves /metrics (Prometheus text format),
// /vars (JSON snapshots), /debug/linz (the online checker's live verdict
// and, after a violation, the failed window's timeline), and
// /debug/pprof/ on the given address.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	atomicregister "repro"
	"repro/internal/core"
	"repro/internal/lamport"
	"repro/internal/register"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bloombench:", err)
		os.Exit(1)
	}
}

// counters pulls the access counters off both real registers through the
// substrate-neutral Counted interface (every substrate implements it; the
// fast ones return nil counters unless counting was requested).
func counters(reg *atomicregister.TwoWriter[int]) (*register.Counters, *register.Counters) {
	r0 := reg.Reg(0).(register.Counted)
	r1 := reg.Reg(1).(register.Counted)
	return r0.Counters(), r1.Counters()
}

func run() error {
	ops := flag.Int("ops", 100000, "operations per measurement")
	jsonOut := flag.Bool("json", false, "also write BENCH_substrates.json and BENCH_obs.json (or BENCH_fault.json / BENCH_net.json with -faults / -net)")
	faults := flag.Bool("faults", false, "run the T-fault table (faulty-link recovery) instead of the default tables")
	netSweep := flag.Bool("net", false, "run the T-net table (pipeline depth throughput) instead of the default tables")
	load := flag.Bool("load", false, "run the T-load table (open-loop saturation curve) instead of the default tables")
	certify := flag.Bool("certify", false, "run the T-certify table (journal + linearizability checking) instead of the default tables")
	replicaFlag := flag.Bool("replica", false, "run the T-replica table (ABD quorum register: variant costs + tolerated-crash soak) instead of the default tables")
	serveAddr := flag.String("serve", "", "serve /metrics, /vars, and /debug/pprof/ on this address instead of running the tables")
	flag.Parse()

	if *serveAddr != "" {
		return serve(*serveAddr)
	}
	if *faults {
		return faultTable(*ops, *jsonOut)
	}
	if *netSweep {
		return netTable(*ops, *jsonOut)
	}
	if *load {
		return loadTable(*ops, *jsonOut)
	}
	if *certify {
		return certifyTable(*ops, *jsonOut)
	}
	if *replicaFlag {
		return replicaTable(*ops, *jsonOut)
	}

	costTable(*ops)
	crashTable()
	stackTable()
	perfTable(*ops)
	if err := substrateTable(*ops, *jsonOut); err != nil {
		return err
	}
	fmt.Println()
	return obsTable(*ops, *jsonOut)
}

// stackTable reports the space cost of the footnote-3 substrate: safe bits
// per 1WnR atomic register for various shapes. The blow-up is why the
// paper assumes the real registers rather than building them.
func stackTable() {
	fmt.Println("== T-stack: safe bits per real register (footnote 3 substrate) ==")
	fmt.Println()
	fmt.Printf("%-10s %-14s %-14s %s\n", "readers", "domain size", "write budget", "safe bits")
	for _, shape := range []struct{ readers, k, budget int }{
		{2, 3, 8},
		{2, 5, 16},
		{3, 3, 8},
		{5, 3, 8},
		{3, 5, 32},
	} {
		domain := make([]int, shape.k)
		for i := range domain {
			domain[i] = i
		}
		a, err := lamport.NewAtomicN(shape.readers, domain, shape.budget, 0, register.NewSeededAdversary(1))
		if err != nil {
			fmt.Println("stack:", err)
			return
		}
		fmt.Printf("%-10d %-14d %-14d %d\n", shape.readers, shape.k, shape.budget, a.BitCount())
	}
	fmt.Println()
	fmt.Println("(cells grow as n + n(n-1) for n readers; bits per cell as (budget+1) × domain.)")
	fmt.Println()
}

// costTable measures the T-cost rows: real accesses per simulated
// operation (Section 5's claims: write = 1+1, read = 3, writer-read = 1–2,
// space = 1 extra bit per real register).
func costTable(ops int) {
	fmt.Println("== T-cost: real accesses per simulated operation (Section 5) ==")
	fmt.Println()
	fmt.Printf("%-28s %-14s %-10s %s\n", "operation", "paper claims", "measured", "verdict")

	row := func(name, claim string, measured float64, okLo, okHi float64) {
		verdict := "OK"
		if measured < okLo || measured > okHi {
			verdict = "MISMATCH"
		}
		fmt.Printf("%-28s %-14s %-10.2f %s\n", name, claim, measured, verdict)
	}

	// Writes.
	reg := atomicregister.New(1, 0)
	c0, c1 := counters(reg)
	for i := 0; i < ops; i++ {
		reg.Writer(i % 2).Write(i)
	}
	reads := float64(c0.TotalReads()+c1.TotalReads()) / float64(ops)
	writes := float64(c0.Writes()+c1.Writes()) / float64(ops)
	row("write: real reads", "1", reads, 1, 1)
	row("write: real writes", "1", writes, 1, 1)

	// Reads.
	base := c0.TotalReads() + c1.TotalReads()
	for i := 0; i < ops; i++ {
		_ = reg.Reader(1).Read()
	}
	perRead := float64(c0.TotalReads()+c1.TotalReads()-base) / float64(ops)
	row("read: real reads", "3", perRead, 3, 3)

	// Writer-as-reader.
	reg2 := atomicregister.New(0, 0)
	d0, d1 := counters(reg2)
	wr := reg2.WriterReader(0)
	other := reg2.WriterReader(1)
	wr.Write(1)
	base = d0.TotalReads() + d1.TotalReads()
	for i := 0; i < ops; i++ {
		if i%10 == 0 {
			other.Write(i) // keep both tags moving
		}
		_ = wr.Read()
	}
	baseAdj := base + int64(ops/10) // the other writer's protocol reads
	perWR := float64(d0.TotalReads()+d1.TotalReads()-baseAdj) / float64(ops)
	row("writer-as-reader: reads", "1-2", perWR, 1, 2)

	fmt.Println()
	fmt.Println("space: each real register stores one value plus ONE tag bit; values unbounded.")
	fmt.Println()
}

// crashTable demonstrates the T-wf rows: crashes at every protocol step
// leave the register fully usable.
func crashTable() {
	fmt.Println("== T-wf: wait-freedom under crashes (Sections 1 and 5) ==")
	fmt.Println()
	fmt.Printf("%-34s %-22s %s\n", "crash point", "write took effect?", "register usable after?")
	for step := 0; step < core.WriterSteps; step++ {
		reg := atomicregister.New(1, 0, atomicregister.WithRecording[int]())
		reg.Writer(0).Write(1)
		took := reg.Writer(1).WriteCrashing(2, step)
		reg.Writer(0).Write(3)
		usable := reg.Reader(1).Read() == 3
		if _, err := atomicregister.Certify(reg); err != nil {
			fmt.Printf("certification after crash failed: %v\n", err)
			return
		}
		names := []string{"before real read", "between read and write", "after real write"}
		fmt.Printf("writer crashed %-20s %-22v %v (run certified atomic)\n", names[step], took, usable)
	}
	for step := 0; step < core.ReaderSteps; step++ {
		reg := atomicregister.New(2, 0, atomicregister.WithRecording[int]())
		reg.Writer(0).Write(1)
		reg.Reader(1).ReadCrashing(step)
		usable := reg.Reader(2).Read() == 1
		if _, err := atomicregister.Certify(reg); err != nil {
			fmt.Printf("certification after crash failed: %v\n", err)
			return
		}
		fmt.Printf("reader crashed after %d real reads    %-22s %v (run certified atomic)\n", step, "n/a", usable)
	}
	fmt.Println()
}

// perfTable measures the T-perf rows: sequential latency per operation.
func perfTable(ops int) {
	fmt.Println("== T-perf: sequential latency (this machine, rough) ==")
	fmt.Println()
	fmt.Printf("%-40s %s\n", "operation", "ns/op")

	measure := func(name string, f func(i int)) {
		start := time.Now()
		for i := 0; i < ops; i++ {
			f(i)
		}
		fmt.Printf("%-40s %.1f\n", name, float64(time.Since(start).Nanoseconds())/float64(ops))
	}

	reg := atomicregister.New(1, 0)
	w := reg.Writer(0)
	r := reg.Reader(1)
	measure("two-writer: write", func(i int) { w.Write(i) })
	measure("two-writer: read", func(i int) { _ = r.Read() })
	wr := reg.WriterReader(0)
	measure("two-writer: writer-as-reader read", func(i int) { _ = wr.Read() })

	locked := register.NewLockedMRMW(0)
	measure("locked baseline: write", func(i int) { locked.Write(i) })
	measure("locked baseline: read", func(i int) { _ = locked.Read() })

	for _, writers := range []int{2, 4, 8} {
		m, err := atomicregister.NewMRMW(writers, 1, 0, false)
		if err != nil {
			fmt.Println("mrmw:", err)
			return
		}
		mw := m.Writer(0)
		mr := m.Reader(0)
		measure(fmt.Sprintf("MRMW (n=%d writers): write", writers), func(i int) { mw.Write(i) })
		measure(fmt.Sprintf("MRMW (n=%d writers): read", writers), func(i int) { _ = mr.Read() })
	}
	fmt.Println()
	fmt.Println("note: the locked baseline is faster per op but is not wait-free — a")
	fmt.Println("descheduled or crashed lock holder blocks every other processor, which")
	fmt.Println("is precisely what register protocols exist to avoid.")
	fmt.Println()
}

// substrateRow is one line of the substrate sweep, in both the printed
// table and BENCH_substrates.json.
type substrateRow struct {
	Substrate   string  `json:"substrate"`
	Certifiable bool    `json:"certifiable"`
	WriteNs     float64 `json:"write_ns_per_op"`
	ReadNs      float64 `json:"read_ns_per_op"`
}

// substrateTable measures sequential write and read latency of the full
// two-writer protocol over each real-register substrate, printing a table
// and optionally writing BENCH_substrates.json.
func substrateTable(ops int, jsonOut bool) error {
	fmt.Println("== T-substrate: protocol latency per real-register substrate ==")
	fmt.Println()
	fmt.Printf("%-14s %-14s %-12s %s\n", "substrate", "certifiable?", "write ns/op", "read ns/op")

	measure := func(f func(i int)) float64 {
		start := time.Now()
		for i := 0; i < ops; i++ {
			f(i)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(ops)
	}

	var rows []substrateRow
	for _, s := range []atomicregister.Substrate{
		atomicregister.Certifiable, atomicregister.FastPointer, atomicregister.FastSeqlock,
	} {
		reg := atomicregister.New(1, 0, atomicregister.WithSubstrate[int](s))
		w := reg.Writer(0)
		r := reg.Reader(1)
		row := substrateRow{
			Substrate:   s.String(),
			Certifiable: s == atomicregister.Certifiable,
			WriteNs:     measure(func(i int) { w.Write(i) }),
			ReadNs:      measure(func(i int) { _ = r.Read() }),
		}
		rows = append(rows, row)
		fmt.Printf("%-14s %-14v %-12.1f %.1f\n", row.Substrate, row.Certifiable, row.WriteNs, row.ReadNs)
	}
	fmt.Println()
	fmt.Println("the fast substrates trade proof.Certify (no stamps) for lock-free real")
	fmt.Println("accesses; their runs are still checkable with CheckAtomic / the")
	fmt.Println("cross-substrate conformance suite.")

	if !jsonOut {
		return nil
	}
	blob, err := json.MarshalIndent(struct {
		Ops  int            `json:"ops_per_measurement"`
		Rows []substrateRow `json:"substrates"`
	}{ops, rows}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_substrates.json", append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println()
	fmt.Println("wrote BENCH_substrates.json")
	return nil
}
