package loadgen

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/replica"
)

// arrivalsDepth buffers scheduled arrivals between a client's generator
// and its workers. Arrivals keep their precomputed schedule stamps, so a
// backed-up buffer shows up as latency (coordinated-omission corrected),
// never as silently shed load.
const arrivalsDepth = 4096

// ClusterConfig describes one load step against a replicated register
// cluster: quorum clients instead of raw connections, logical
// reads/writes instead of wire frames.
type ClusterConfig struct {
	// Addrs are the replica servers.
	Addrs []string
	// Mode is the protocol variant every client runs.
	Mode replica.Mode
	// Clients is the number of quorum clients; each gets a distinct
	// writer id (default 4).
	Clients int
	// Depth is the number of concurrent workers per client — the
	// client's logical pipeline, and what makes reads combine (default 16).
	Depth int
	// Rate is the total offered arrival rate in logical ops/sec across
	// all clients, split evenly into per-client Poisson processes.
	// Rate <= 0 selects closed-loop max-rate mode.
	Rate float64
	// Duration is how long arrivals are generated (default 2s).
	Duration time.Duration
	// ReadFrac is the fraction of operations that are reads, in [0,1].
	ReadFrac float64
	// ValueBytes is the write payload size (a JSON string; default 16).
	ValueBytes int
	// Seed makes the schedule and op mix reproducible.
	Seed int64
	// Timeout is each client's quorum-phase timeout (default 5s — a
	// saturated cluster queues deep; a premature timeout would poison the
	// measurement with failures).
	Timeout time.Duration
	// Tally, when set, receives every client's quorum accounting
	// (rounds/op, combining, elision). Create with
	// obs.NewReplica(len(Addrs)).
	Tally *obs.Replica
}

// withDefaults fills in the zero-value defaults.
func (cfg ClusterConfig) withDefaults() ClusterConfig {
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 16
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.ReadFrac < 0 {
		cfg.ReadFrac = 0
	}
	if cfg.ReadFrac > 1 {
		cfg.ReadFrac = 1
	}
	if cfg.ValueBytes <= 0 {
		cfg.ValueBytes = 16
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	return cfg
}

// clusterWorker runs logical ops for scheduled arrivals until the
// channel closes, observing latency from each arrival's schedule stamp.
// Reads go through ReadInto with a reused buffer, which keeps the
// measured path zero-allocation.
func clusterWorker(cfg ClusterConfig, q *replica.QClient, arrivals <-chan int64, epoch time.Time,
	load *obs.Load, hist *obs.Hist, fails *atomic.Int64, seed int64, val json.RawMessage) {
	rng := rand.New(rand.NewSource(seed))
	var buf []byte
	for sched := range arrivals {
		var err error
		if rng.Float64() < cfg.ReadFrac {
			buf, _, _, err = q.ReadInto(buf)
		} else {
			_, _, err = q.WriteStamped(val)
		}
		hist.Observe(time.Since(epoch) - time.Duration(sched))
		load.Done(err == nil)
		if err != nil {
			fails.Add(1)
		}
	}
}

// clusterGenerate offers one client's arrivals: Poisson gaps at
// rate/clients in open-loop mode, back-to-back in closed-loop mode. The
// schedule stamp travels with the arrival, so queueing anywhere — the
// buffer, the client, the quorum — is counted against the operation.
func clusterGenerate(cfg ClusterConfig, arrivals chan<- int64, epoch time.Time,
	load *obs.Load, seed int64) {
	defer close(arrivals)
	rng := rand.New(rand.NewSource(seed))
	open := cfg.Rate > 0
	var meanGapNs float64
	if open {
		meanGapNs = float64(cfg.Clients) / cfg.Rate * 1e9
	}
	endNs := int64(cfg.Duration)
	next := int64(0)
	if open {
		next = int64(rng.ExpFloat64() * meanGapNs)
	}
	for {
		now := int64(time.Since(epoch))
		if open {
			if next >= endNs {
				return
			}
			if next > now {
				time.Sleep(time.Duration(next - now))
			}
		} else {
			if now >= endNs {
				return
			}
			next = now
		}
		load.Arrive()
		arrivals <- next
		if open {
			next += int64(rng.ExpFloat64() * meanGapNs)
		}
	}
}

// RunCluster executes one load step against a replica cluster and
// reports its measurement plus the merged quorum accounting (when
// cfg.Tally is set, the same tally, snapshotted after the step).
func RunCluster(cfg ClusterConfig) (Result, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Addrs) == 0 {
		return Result{}, fmt.Errorf("loadgen: no replica addresses")
	}

	clients := make([]*replica.QClient, cfg.Clients)
	for i := range clients {
		q, err := replica.Dial(cfg.Addrs, replica.Options{
			Mode: cfg.Mode, WriterID: uint32(i + 1), Tally: cfg.Tally,
			Timeout: cfg.Timeout,
		})
		if err != nil {
			for _, c := range clients[:i] {
				c.Close()
			}
			return Result{}, fmt.Errorf("loadgen: dial cluster: %w", err)
		}
		clients[i] = q
	}
	defer func() {
		for _, q := range clients {
			q.Close()
		}
	}()

	val := make([]byte, 0, cfg.ValueBytes+2)
	val = append(val, '"')
	for i := 0; i < cfg.ValueBytes; i++ {
		val = append(val, 'x')
	}
	val = append(val, '"')

	load := obs.NewLoad()
	hists := make([]obs.Hist, cfg.Clients*cfg.Depth)
	var fails atomic.Int64
	epoch := time.Now()
	var wg sync.WaitGroup
	// Open-loop arrivals buffer deep — a backed-up buffer is latency the
	// server caused and must be counted (coordinated omission). A closed
	// loop has no schedule to fall behind, so its buffer just tracks the
	// worker pipeline.
	buf := arrivalsDepth
	if cfg.Rate <= 0 {
		buf = cfg.Depth
	}
	for i, q := range clients {
		arrivals := make(chan int64, buf)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clusterGenerate(cfg, arrivals, epoch, load, cfg.Seed+int64(i)*1664525+1)
		}(i)
		for w := 0; w < cfg.Depth; w++ {
			wg.Add(1)
			go func(i, w int, q *replica.QClient) {
				defer wg.Done()
				clusterWorker(cfg, q, arrivals, epoch, load, &hists[i*cfg.Depth+w],
					&fails, cfg.Seed+int64(i*cfg.Depth+w)*22695477+7, val)
			}(i, w, q)
		}
	}
	wg.Wait()
	elapsed := time.Since(epoch)
	if n := fails.Load(); n > 0 {
		return Result{}, fmt.Errorf("loadgen: %d logical operations failed against a healthy cluster", n)
	}

	var merged obs.Hist
	for i := range hists {
		merged.Merge(&hists[i])
	}
	snap := merged.Snapshot()
	return Result{
		TargetRate: max(cfg.Rate, 0),
		Load:       load.Snapshot(elapsed),
		P50Us:      float64(merged.Quantile(0.50)) / 1e3,
		P99Us:      float64(merged.Quantile(0.99)) / 1e3,
		P999Us:     float64(merged.Quantile(0.999)) / 1e3,
		MeanUs:     snap.MeanNs / 1e3,
	}, nil
}

// SweepCluster measures the replicated register's saturation curve: a
// closed-loop probe finds the cluster's peak logical throughput, then
// one open-loop step per fraction offers frac x peak and reports the
// (coordinated-omission-corrected) latency distribution there.
func SweepCluster(cfg ClusterConfig, fracs []float64) ([]Result, error) {
	probeCfg := cfg
	probeCfg.Rate = 0
	probe, err := RunCluster(probeCfg)
	if err != nil {
		return nil, fmt.Errorf("loadgen: cluster peak probe: %w", err)
	}
	probe.Name = "probe"
	results := []Result{probe}
	peak := probe.Load.AchievedPS
	for _, frac := range fracs {
		runtime.GC()
		time.Sleep(settle)
		stepCfg := cfg
		stepCfg.Rate = frac * peak
		r, err := RunCluster(stepCfg)
		if err != nil {
			return nil, fmt.Errorf("loadgen: cluster step %.0f%%: %w", frac*100, err)
		}
		r.Name = fmt.Sprintf("load-%.0f", frac*100)
		results = append(results, r)
	}
	return results, nil
}
