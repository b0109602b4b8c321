package main

// metricDef is one reported metric. For an end-to-end metric, floor is an
// absolute allowance, in the metric's unit, that compare grants on top of
// the relative bound in BENCHMARK.json: a worsening counts only when it
// exceeds both. For per-layer metrics, moves names the end-to-end metrics
// the layer metric should move and on names the workloads where it
// should; a metric that should move nothing says why in note instead.
type metricDef struct {
	name, unit, better string
	gated              bool
	floor              float64
	moves, on          []string
	note               string
}

var (
	allNet   = []string{"cluster-read", "cluster-write", "net-single"}
	clusters = []string{"cluster-read", "cluster-write"}
)

// endToEnd lists what a user of the register stack sees. Every workload
// reports every one of them (see README.md for what each means on the
// in-memory shm-2w workload). BENCHMARK.json lists, and bounds, the gated
// ones: the rest are recorded and printed but swing by more than the
// largest allowed bound between runs on the reference box (README.md).
var endToEnd = []metricDef{
	{name: "p50_us_low", unit: "us", better: "lower"},
	{name: "p99_us_low", unit: "us", better: "lower"},
	{name: "p50_us_mid", unit: "us", better: "lower"},
	{name: "p99_us_mid", unit: "us", better: "lower"},
	{name: "max_rate_ops_s", unit: "ops/s", better: "higher"},
	{name: "cpu_us_per_op", unit: "us", better: "lower", gated: true},
	// Set-up takes well under a millisecond and swings by a third between
	// runs; only a worsening of both 25% and 20 ms is a regression.
	{name: "setup_s", unit: "s", better: "lower", gated: true, floor: 0.020},
}

// gated returns the end-to-end metrics BENCHMARK.json bounds.
func gated() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.gated {
			out = append(out, d)
		}
	}
	return out
}

// perLayer lists the traced run's metrics, one layer (repo module) at a
// time, measured from outside the layer. A metric of a layer a workload
// does not use reads 0 there.
var perLayer = []metricDef{
	{name: "gen.lag_us_p99", unit: "us", better: "lower",
		note: "moves nothing; if it rises, the run measured the generator, not the program"},
	{name: "gen.wait_us_p50", unit: "us", better: "lower",
		moves: []string{"p99_us_mid", "max_rate_ops_s"}, on: allNet},
	{name: "gen.wait_us_p99", unit: "us", better: "lower",
		moves: []string{"p99_us_mid", "max_rate_ops_s"}, on: allNet},
	// On the clusters each handle's writes queue for its one writer slot,
	// so the knee there is near 2 handles / (write share × write latency):
	// a change that cuts quorum CPU or bytes but not the write's round
	// trips leaves max_rate_ops_s where it was. This wait shows the queue.
	{name: "gen.write_wait_us_p99", unit: "us", better: "lower",
		moves: []string{"p99_us_mid", "max_rate_ops_s"}, on: clusters},
	{name: "gen.drain_us", unit: "us", better: "lower",
		note: "moves nothing; how long after a mid-rate trial's deadline its last op completed"},

	{name: "replica.read_call_us_p50", unit: "us", better: "lower",
		moves: []string{"p50_us_low", "p50_us_mid"}, on: clusters},
	{name: "replica.read_call_us_p99", unit: "us", better: "lower",
		moves: []string{"p99_us_low", "p99_us_mid"}, on: clusters},
	{name: "replica.write_call_us_p50", unit: "us", better: "lower",
		moves: []string{"p50_us_low", "p50_us_mid", "max_rate_ops_s"}, on: clusters},
	{name: "replica.write_call_us_p99", unit: "us", better: "lower",
		moves: []string{"p99_us_low", "p99_us_mid"}, on: clusters},
	{name: "replica.read_rounds_per_op", unit: "count", better: "lower",
		moves: []string{"cpu_us_per_op"}, on: []string{"cluster-write"}},
	{name: "replica.write_rounds_per_op", unit: "count", better: "lower",
		moves: []string{"cpu_us_per_op", "max_rate_ops_s"}, on: []string{"cluster-write"}},
	{name: "replica.combined_read_frac", unit: "ratio", better: "higher",
		moves: []string{"max_rate_ops_s", "cpu_us_per_op"}, on: []string{"cluster-read"}},
	{name: "replica.fast_read_frac", unit: "ratio", better: "higher",
		moves: []string{"max_rate_ops_s", "cpu_us_per_op"}, on: []string{"cluster-read"}},
	{name: "replica.elided_read_frac", unit: "ratio", better: "higher",
		moves: []string{"max_rate_ops_s", "cpu_us_per_op"}, on: []string{"cluster-read"}},
	{name: "replica.msgs_per_op", unit: "count", better: "lower",
		moves: []string{"cpu_us_per_op"}, on: []string{"cluster-write"}},
	{name: "replica.bytes_per_op", unit: "B", better: "lower",
		moves: []string{"cpu_us_per_op"}, on: []string{"cluster-write"}},
	{name: "replica.frames_per_write_syscall", unit: "count", better: "higher",
		moves: []string{"cpu_us_per_op", "p50_us_low"}, on: clusters},
	{name: "replica.no_quorum", unit: "count", better: "lower",
		moves: []string{"p99_us_mid"}, on: clusters,
		note: "a failed op also fails the run"},
	{name: "replica.replica_failures", unit: "count", better: "lower",
		moves: []string{"p99_us_mid"}, on: clusters,
		note: "a failed op also fails the run"},

	{name: "netreg.call_us_p50", unit: "us", better: "lower",
		moves: []string{"p50_us_low", "p50_us_mid"}, on: []string{"net-single"}},
	{name: "netreg.call_us_p99", unit: "us", better: "lower",
		moves: []string{"p99_us_low", "p99_us_mid"}, on: []string{"net-single"}},
	{name: "netreg.frames_per_write_syscall", unit: "count", better: "higher",
		moves: []string{"cpu_us_per_op"}, on: []string{"net-single"}},
	{name: "netreg.retries", unit: "count", better: "lower",
		moves: []string{"p99_us_mid"}, on: []string{"net-single"}},
	{name: "netreg.timeouts", unit: "count", better: "lower",
		moves: []string{"p99_us_mid"}, on: []string{"net-single"}},
	{name: "netreg.server_bytes_per_op", unit: "B", better: "lower",
		moves: []string{"cpu_us_per_op"}, on: allNet},

	{name: "core.read_ns", unit: "ns", better: "lower",
		moves: []string{"max_rate_ops_s", "p50_us_mid"}, on: []string{"shm-2w"}},
	{name: "core.write_ns", unit: "ns", better: "lower",
		moves: []string{"max_rate_ops_s", "p50_us_mid"}, on: []string{"shm-2w"}},
	{name: "core.real_reads_per_read", unit: "count", better: "lower",
		moves: []string{"max_rate_ops_s"}, on: []string{"shm-2w"}},
	{name: "core.real_reads_per_write", unit: "count", better: "lower",
		moves: []string{"max_rate_ops_s"}, on: []string{"shm-2w"}},
	{name: "core.real_writes_per_write", unit: "count", better: "lower",
		moves: []string{"max_rate_ops_s"}, on: []string{"shm-2w"}},

	{name: "runtime.allocs_per_op", unit: "count", better: "lower",
		moves: []string{"cpu_us_per_op", "p99_us_mid"}, on: []string{"net-single"}},
	{name: "runtime.alloc_bytes_per_op", unit: "B", better: "lower",
		moves: []string{"cpu_us_per_op", "p99_us_mid"}, on: []string{"net-single"}},
	{name: "runtime.gc_per_s", unit: "1/s", better: "lower",
		moves: []string{"p99_us_mid"}, on: []string{"net-single"}},

	{name: "trace.overhead_frac", unit: "ratio", better: "lower",
		note: "moves nothing; it bounds what the traced numbers cost"},
	{name: "verify.ops_checked", unit: "count", better: "higher",
		note: "moves nothing; it must be above 0 for the run to count"},
}

// unitOf returns a metric's unit.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}
