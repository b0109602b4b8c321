// Command bloomload drives the open-loop load generator
// (internal/loadgen) against a register server and reports the
// saturation curve: a closed-loop probe finds peak throughput, then
// offered load is stepped as fractions of that peak and the latency
// distribution (p50/p99/p999, measured from scheduled arrivals) is
// reported at each step, together with the offered-vs-achieved
// accounting that closed-loop benchmarks cannot show.
//
// Usage:
//
//	bloomload [flags]
//
// By default bloomload starts its own in-process server on a loopback
// port (so one command measures the whole stack); -addr aims it at an
// external server instead. With -json the run is written to
// BENCH_loadgen.json for machine consumption (CI trend lines).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/loadgen"
	"repro/internal/netreg"
	"repro/internal/replica"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bloomload:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "", "register server address (default: start an in-process server)")
	conns := flag.Int("conns", 4, "concurrent pipelined connections")
	depth := flag.Int("depth", 256, "per-connection pipeline depth")
	duration := flag.Duration("duration", 2*time.Second, "duration of each load step")
	readFrac := flag.Float64("readfrac", 0.9, "fraction of operations that are reads")
	valueBytes := flag.Int("value", 1, "write payload size in bytes")
	vsizes := flag.String("vsizes", "", "comma-separated write payload sizes to probe as an extra axis (e.g. 16,512,4096)")
	unique := flag.Bool("unique", false, "make every write value distinct (required for sharp certification runs)")
	registers := flag.Int("regs", 1, "registers to spread load over (Zipf-distributed)")
	zipfS := flag.Float64("zipf", 1.2, "Zipf skew parameter (> 1)")
	rate := flag.Float64("rate", 0, "run a single open-loop step at this ops/sec instead of the sweep")
	sweep := flag.String("sweep", "0.5,0.75,0.9,1.0", "offered-load fractions of probed peak")
	seed := flag.Int64("seed", 1, "arrival schedule seed")
	jsonOut := flag.Bool("json", false, "write BENCH_loadgen.json")
	replicaLoad := flag.Bool("replica", false, "drive the replicated register: quorum clients over an in-process cluster")
	replicas := flag.Int("replicas", 3, "replica servers in -replica mode")
	clients := flag.Int("clients", 4, "quorum clients in -replica mode")
	qdepth := flag.Int("qdepth", 16, "concurrent logical ops per quorum client in -replica mode")
	modeName := flag.String("mode", "abd", "protocol variant in -replica mode (abd or fast)")
	flag.Parse()

	fracs, err := parseFracs(*sweep)
	if err != nil {
		return err
	}

	if *replicaLoad {
		mode, err := parseMode(*modeName)
		if err != nil {
			return err
		}
		vb := *valueBytes
		if vb <= 1 {
			vb = 16
		}
		return runReplica(loadgen.ClusterConfig{
			Addrs:      make([]string, *replicas),
			Clients:    *clients,
			Depth:      *qdepth,
			Duration:   *duration,
			ReadFrac:   *readFrac,
			ValueBytes: vb,
			Seed:       *seed,
		}, mode, fracs, *rate, *jsonOut)
	}

	sizes, err := parseSizes(*vsizes)
	if err != nil {
		return err
	}

	cfg := loadgen.Config{
		Conns:        *conns,
		Depth:        *depth,
		Duration:     *duration,
		ReadFrac:     *readFrac,
		ValueBytes:   *valueBytes,
		UniqueValues: *unique,
		ZipfS:        *zipfS,
		Seed:         *seed,
	}
	var regNames []string
	if *registers > 1 {
		regNames = make([]string, *registers)
		for i := 1; i < *registers; i++ {
			regNames[i] = fmt.Sprintf("reg%d", i)
		}
		cfg.Regs = regNames
	}

	cfg.Addr = *addr
	if cfg.Addr == "" {
		srv, err := startServer(regNames)
		if err != nil {
			return err
		}
		defer srv.Close()
		cfg.Addr = srv.Addr()
		fmt.Printf("in-process server on %s\n\n", cfg.Addr)
	}

	var steps []loadgen.Result
	if *rate > 0 {
		cfg.Rate = *rate
		r, err := loadgen.Run(cfg)
		if err != nil {
			return err
		}
		r.Name = "single"
		steps = []loadgen.Result{r}
	} else {
		if steps, err = loadgen.Sweep(cfg, fracs); err != nil {
			return err
		}
	}

	fmt.Printf("== saturation curve: %d conns x depth %d, %.0f%% reads, %dB values, %d register(s) ==\n\n",
		*conns, *depth, *readFrac*100, *valueBytes, *registers)
	fmt.Printf("%-10s %-13s %-13s %-9s %-10s %-10s %-10s %s\n",
		"step", "offered/s", "achieved/s", "backlog", "p50 us", "p99 us", "p999 us", "queue peak")
	var peak float64
	for _, s := range steps {
		if s.Load.AchievedPS > peak {
			peak = s.Load.AchievedPS
		}
		fmt.Printf("%-10s %-13.0f %-13.0f %-9.3f %-10.1f %-10.1f %-10.1f %d\n",
			s.Name, s.Load.OfferedPS, s.Load.AchievedPS, s.Load.BacklogFrac,
			s.P50Us, s.P99Us, s.P999Us, s.Load.QueuePeak)
	}
	fmt.Printf("\npeak achieved: %.0f ops/sec\n", peak)

	var vsizeRows []loadgen.Result
	if len(sizes) > 0 {
		fmt.Printf("\n== value-size axis (closed-loop probes) ==\n\n")
		fmt.Printf("%-12s %-13s %-10s %-10s %s\n", "size", "achieved/s", "p50 us", "p99 us", "p999 us")
		for _, sz := range sizes {
			vcfg := cfg
			vcfg.Rate = 0
			vcfg.ValueBytes = sz
			r, err := loadgen.Run(vcfg)
			if err != nil {
				return fmt.Errorf("vsize %d: %w", sz, err)
			}
			r.Name = fmt.Sprintf("vsize-%d", sz)
			vsizeRows = append(vsizeRows, r)
			fmt.Printf("%-12s %-13.0f %-10.1f %-10.1f %.1f\n",
				fmt.Sprintf("%dB", sz), r.Load.AchievedPS, r.P50Us, r.P99Us, r.P999Us)
		}
	}

	if !*jsonOut {
		return nil
	}
	doc := loadgen.BenchDoc{
		Conns:        *conns,
		Depth:        *depth,
		ReadFrac:     *readFrac,
		ValueBytes:   *valueBytes,
		Registers:    *registers,
		DurationSecs: duration.Seconds(),
		PeakOpsPS:    peak,
		Steps:        steps,
		VSizes:       vsizeRows,
	}
	if err := doc.WriteFile("BENCH_loadgen.json"); err != nil {
		return err
	}
	fmt.Println("\nwrote BENCH_loadgen.json")
	return nil
}

// startServer builds the in-process store (default register plus any
// named ones) and serves it.
func startServer(regNames []string) (*netreg.Server, error) {
	st, err := netreg.NewStore("x", 1, nil)
	if err != nil {
		return nil, err
	}
	for _, name := range regNames {
		if name == "" {
			continue
		}
		if err := netreg.AddRegister(st, name, "x", 1, nil); err != nil {
			return nil, err
		}
	}
	return netreg.Serve("127.0.0.1:0", st)
}

// parseSizes parses the -vsizes flag ("16,512,4096").
func parseSizes(s string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad value size %q", part)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// parseMode parses the -mode flag.
func parseMode(s string) (replica.Mode, error) {
	switch s {
	case "abd":
		return replica.ModeABD, nil
	case "fast":
		return replica.ModeFast, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want abd or fast)", s)
	}
}

// parseFracs parses the -sweep flag ("0.5,0.75,1.0").
func parseFracs(s string) ([]float64, error) {
	var fracs []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := strconv.ParseFloat(part, 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("bad sweep fraction %q", part)
		}
		fracs = append(fracs, f)
	}
	if len(fracs) == 0 {
		return nil, fmt.Errorf("empty sweep")
	}
	return fracs, nil
}
