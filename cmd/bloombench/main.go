// Command bloombench prints the tables of the paper's own claims
// (EXPERIMENTS.md): the Section 5 cost claims measured on live traffic
// (T-cost), wait-freedom under crashes (T-wf), and the space cost of the
// footnote-3 safe-bit substrate (T-stack). Every row is checked, and the
// command exits non-zero if any claim fails.
//
// Usage:
//
//	bloombench [-ops N]
//	bloombench -certify [-ops N]
//	bloombench -serve :8080
//
// With -certify, bloombench instead runs the T-certify table: a journaled
// closed-loop run through netreg.Client checked offline as one history
// (internal/linz), the online windowed checker shadowing a run paced to
// half the offline peak, the journal tap's hot-path overhead, the seeded
// faulty pipelined two-writer run certified atomic online, and a
// synthetic non-atomic history that must fail. It writes its rows to
// BENCH_certify.json and the violation's timeline to LINZ_violation.html
// in the current directory.
//
// With -serve, bloombench instead runs an open-ended observed workload
// over every substrate and serves /metrics (Prometheus text format),
// /vars (JSON snapshots), /debug/linz (the online checker's live verdict
// and, after a violation, the failed window's timeline), and
// /debug/pprof/ on the given address.
//
// Timings live in the root benchmarks (go test -bench . .), per
// substrate, and load and latency under load in the benchmark of record,
// bench/ (bash bench/run.sh; see bench/README.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

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
	certify := flag.Bool("certify", false, "run the T-certify table (journal + linearizability checking) instead of the default tables")
	serveAddr := flag.String("serve", "", "serve /metrics, /vars, and /debug/pprof/ on this address instead of running the tables")
	flag.Parse()

	if *ops < 1 {
		return fmt.Errorf("-ops must be at least 1, got %d", *ops)
	}
	if *serveAddr != "" {
		return serve(*serveAddr)
	}
	if *certify {
		return certifyTable(*ops)
	}
	return errors.Join(costTable(*ops), crashTable(), stackTable())
}

// stackTable reports the space cost of the footnote-3 substrate: safe bits
// per 1WnR atomic register for various shapes. The blow-up is why the
// paper assumes the real registers rather than building them.
func stackTable() error {
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
			return fmt.Errorf("T-stack: %d readers, domain %d, budget %d: %w", shape.readers, shape.k, shape.budget, err)
		}
		fmt.Printf("%-10d %-14d %-14d %d\n", shape.readers, shape.k, shape.budget, a.BitCount())
	}
	fmt.Println()
	fmt.Println("(cells grow as n + n(n-1) for n readers; bits per cell as (budget+1) × domain.)")
	fmt.Println()
	return nil
}

// costTable measures the T-cost rows: real accesses per simulated
// operation (Section 5's claims: write = 1+1, read = 3, writer-read = 1–2,
// space = 1 extra bit per real register). It fails if any row is out of
// its claimed range.
func costTable(ops int) error {
	fmt.Println("== T-cost: real accesses per simulated operation (Section 5) ==")
	fmt.Println()
	fmt.Printf("%-28s %-14s %-10s %s\n", "operation", "paper claims", "measured", "verdict")

	var bad []string
	row := func(name, claim string, measured float64, okLo, okHi float64) {
		verdict := "OK"
		// Negated, so that a NaN, which fails every comparison, mismatches.
		if !(okLo <= measured && measured <= okHi) {
			verdict = "MISMATCH"
			bad = append(bad, name)
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
			base++         // not counted: the other writer's protocol read
		}
		_ = wr.Read()
	}
	perWR := float64(d0.TotalReads()+d1.TotalReads()-base) / float64(ops)
	row("writer-as-reader: reads", "1-2", perWR, 1, 2)

	fmt.Println()
	fmt.Println("space: each real register stores one value plus ONE tag bit; values unbounded.")
	fmt.Println()
	if len(bad) > 0 {
		return fmt.Errorf("T-cost: mismatch with the paper on %s", strings.Join(bad, "; "))
	}
	return nil
}

// crashTable demonstrates the T-wf rows: crashes at every protocol step
// leave the register fully usable. It fails on a run that does not
// certify or a register left unusable.
func crashTable() error {
	fmt.Println("== T-wf: wait-freedom under crashes (Sections 1 and 5) ==")
	fmt.Println()
	fmt.Printf("%-34s %-22s %s\n", "crash point", "write took effect?", "register usable after?")
	for step := 0; step < core.WriterSteps; step++ {
		reg := atomicregister.New(1, 0, atomicregister.WithRecording[int]())
		reg.Writer(0).Write(1)
		took := reg.Writer(1).WriteCrashing(2, step)
		reg.Writer(0).Write(3)
		usable := reg.Reader(1).Read() == 3
		names := []string{"before real read", "between read and write", "after real write"}
		if _, err := atomicregister.Certify(reg); err != nil {
			return fmt.Errorf("T-wf: writer crashed %s: certification failed: %w", names[step], err)
		}
		fmt.Printf("writer crashed %-20s %-22v %v (run certified atomic)\n", names[step], took, usable)
		if !usable {
			return fmt.Errorf("T-wf: writer crashed %s: register unusable after the crash", names[step])
		}
	}
	for step := 0; step < core.ReaderSteps; step++ {
		reg := atomicregister.New(2, 0, atomicregister.WithRecording[int]())
		reg.Writer(0).Write(1)
		reg.Reader(1).ReadCrashing(step)
		usable := reg.Reader(2).Read() == 1
		if _, err := atomicregister.Certify(reg); err != nil {
			return fmt.Errorf("T-wf: reader crashed after %d real reads: certification failed: %w", step, err)
		}
		fmt.Printf("reader crashed after %d real reads    %-22s %v (run certified atomic)\n", step, "n/a", usable)
		if !usable {
			return fmt.Errorf("T-wf: reader crashed after %d real reads: register unusable after the crash", step)
		}
	}
	fmt.Println()
	return nil
}
