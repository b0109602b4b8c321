// Package loadgen is an open-loop load generator for the networked
// registers (internal/netreg): a Poisson arrival process offers
// operations at a configured rate whether or not the server keeps up,
// which is what separates honest tail latency from the flattery of
// closed-loop benchmarks (a closed loop slows its offered load to
// whatever the server achieves, silently hiding every queueing delay —
// coordinated omission).
//
// The generator speaks the binary wire protocol directly rather than
// going through netreg.Client: a client built for correctness spends a
// channel, a timer, and map bookkeeping per call, which at
// hundreds of thousands of operations per second costs more than the
// server work being measured. Here each connection is one writer
// goroutine and one reaper goroutine sharing a power-of-two ring of
// scheduled-arrival timestamps indexed by request id, so correlating a
// response costs one atomic load. Latency is measured from the
// operation's SCHEDULED arrival, not from when the generator got around
// to sending it — the coordination-omission correction: time an
// overloaded server makes an arrival wait in the generator's queue is
// server-attributable latency and is counted as such.
//
// Register selection is Zipf-distributed over the configured names
// (realistic skew: a few hot registers, a long cold tail), and the
// read/write mix, connection count, per-connection pipeline depth, and
// value size are all configurable. Rate <= 0 selects closed-loop
// max-rate mode — every connection keeps its pipeline full — which is
// how Sweep probes the server's peak before stepping offered load as
// fractions of it.
package loadgen

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// connBufSize sizes each connection's buffered reader and writer, large
// enough that a pipeline-depth burst of small frames is one syscall.
const connBufSize = 64 << 10

// drainTimeout bounds the post-deadline wait for in-flight responses.
const drainTimeout = 5 * time.Second

// Config describes one load step.
type Config struct {
	// Addr is the register server's address.
	Addr string
	// Conns is the number of concurrent pipelined connections (default 1).
	Conns int
	// Depth caps each connection's in-flight requests (default 256). The
	// correlation ring backing it is sized by Ring; when Ring is zero,
	// Depth itself is rounded up to the next power of two and that
	// rounded size serves as both the window and the ring (see doc.go).
	Depth int
	// Ring, when nonzero, sizes each connection's correlation ring
	// explicitly. It must be a power of two and at least Depth, or Run
	// fails; the in-flight window then stays at the exact configured
	// Depth instead of inheriting the rounded ring size.
	Ring int
	// Rate is the total offered arrival rate in ops/sec across all
	// connections, split evenly into independent per-connection Poisson
	// processes (their superposition is again Poisson at the full rate).
	// Rate <= 0 selects closed-loop max-rate mode.
	Rate float64
	// Duration is how long arrivals are generated (default 2s).
	Duration time.Duration
	// ReadFrac is the fraction of operations that are reads, in [0,1].
	ReadFrac float64
	// Regs are the register names to spread load over, hottest first
	// (selection is Zipf-distributed over the slice). Empty means the
	// default register only.
	Regs []string
	// ZipfS is the Zipf skew parameter (must be > 1; default 1.2).
	ZipfS float64
	// ValueBytes is the write payload size: a JSON string of this many
	// bytes (default 1).
	ValueBytes int
	// UniqueValues makes every write value distinct: a per-connection tag
	// and counter lead the payload. Certification runs need this — with
	// one constant value every read trivially matches every write and a
	// linearizability checker can prove almost nothing. The tag sits at
	// the front of the payload, inside the journal's value-hash window;
	// payloads too short to hold it grow to fit.
	UniqueValues bool
	// Seed makes the arrival schedule and op mix reproducible.
	Seed int64
}

// withDefaults fills in the zero-value defaults.
func (cfg Config) withDefaults() Config {
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 256
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
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.2
	}
	if cfg.ValueBytes <= 0 {
		cfg.ValueBytes = 1
	}
	return cfg
}

// Result is one load step's measurement.
type Result struct {
	// Name labels the step in tables and JSON ("probe", "load-50", ...).
	Name string `json:"name"`
	// TargetRate is the offered rate this step asked for (0 = closed-loop
	// max-rate probe).
	TargetRate float64 `json:"target_rate_ops_per_sec"`
	// Load is the offered/achieved/backlog accounting for the step.
	Load obs.LoadSnapshot `json:"load"`
	// P50Us, P99Us, P999Us, MeanUs summarize the latency distribution in
	// microseconds, measured from each operation's scheduled arrival.
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MeanUs float64 `json:"mean_us"`
}

// nextPow2 rounds n up to a power of two.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// lgConn is one load-generating connection: a writer goroutine offers
// arrivals and a reaper goroutine retires responses, correlated through
// the sched ring. The in-flight window (sent - done < depth) guarantees
// a ring slot is never reused before its response has been reaped.
type lgConn struct {
	conn net.Conn
	bw   *bufio.Writer
	wr   *wire.Writer
	rd   *wire.Reader

	sched []atomic.Int64 // scheduled arrival (ns since epoch), by id & mask
	mask  uint64
	depth uint64        // in-flight window; <= ring size, so slots never reuse early
	sent  uint64        // writer-local
	done  atomic.Uint64 // reaper-published completions

	// wake is the reaper→writer doorbell: a 1-buffered token the reaper
	// offers (non-blocking) per completion and the writer BLOCKS on when
	// the ring is full. Blocking — never spinning — matters on a single
	// core: a runnable spin loop starves the netpoller, and every batch
	// round trip then pays a multi-millisecond scheduler-timer penalty.
	wake chan struct{}
	dead atomic.Bool // reaper exited (connection dropped)

	hist obs.Hist
}

// dialConn connects and sizes one generator connection: ring slots for
// correlation (a power of two), depth for the in-flight window.
func dialConn(addr string, depth, ring int) (*lgConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cn := &lgConn{
		conn:  conn,
		bw:    bufio.NewWriterSize(conn, connBufSize),
		sched: make([]atomic.Int64, ring),
		mask:  uint64(ring - 1),
		depth: uint64(depth),
		wake:  make(chan struct{}, 1),
	}
	cn.wr = wire.NewWriter(cn.bw)
	cn.rd = wire.NewReader(bufio.NewReaderSize(conn, connBufSize))
	return cn, nil
}

// errReaderDead reports a connection whose reaper exited mid-run.
var errReaderDead = fmt.Errorf("loadgen: connection reader died (server dropped the link?)")

// reap retires responses until the connection drops: correlate by id,
// observe latency from the scheduled arrival, tally the completion, and
// ring the writer's doorbell.
func (cn *lgConn) reap(epoch time.Time, load *obs.Load) {
	defer func() {
		cn.dead.Store(true)
		close(cn.wake)
	}()
	var resp wire.Response
	for {
		if err := cn.rd.ReadResponse(&resp); err != nil {
			return
		}
		cn.retire(&resp, epoch, load)
	}
}

// retire accounts one reaped response: latency against the ring's
// scheduled-arrival stamp, histogram and throughput counters, and the
// writer doorbell.
//
//bloom:noalloc
func (cn *lgConn) retire(resp *wire.Response, epoch time.Time, load *obs.Load) {
	lat := int64(time.Since(epoch)) - cn.sched[resp.ID&cn.mask].Load()
	cn.hist.Observe(time.Duration(lat))
	load.Done(resp.Err == "")
	cn.done.Add(1)
	select {
	case cn.wake <- struct{}{}:
	default:
	}
}

// stamp publishes arrival id's scheduled time into the ring slot it
// occupies until reaped.
//
//bloom:noalloc
func (cn *lgConn) stamp(id uint64, at int64) {
	cn.sched[id&cn.mask].Store(at)
}

// waitRoom flushes and blocks until the in-flight window has drained to
// half the ring, so refills go out as half-ring batches instead of one
// syscall per freed slot. No-op while the ring has room.
//
//bloom:noalloc
func (cn *lgConn) waitRoom() error {
	if cn.sent-cn.done.Load() < cn.depth {
		return nil
	}
	if err := cn.wr.Flush(); err != nil {
		return err
	}
	half := cn.depth / 2
	for cn.sent-cn.done.Load() > half {
		if cn.dead.Load() {
			return errReaderDead
		}
		<-cn.wake
	}
	return nil
}

// drive generates this connection's arrivals until the deadline: Poisson
// inter-arrival gaps at rate/conns in open-loop mode, back-to-back in
// closed-loop mode. Each arrival is stamped into the ring and its frame
// buffered; the buffer is flushed before every sleep and whenever the
// ring fills, so a burst travels as one syscall. When the ring is full
// the writer blocks — but the arrival keeps its scheduled timestamp, so
// the wait shows up in the latency distribution rather than silently
// shrinking the offered rate.
func (cn *lgConn) drive(cfg Config, epoch time.Time, load *obs.Load, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if len(cfg.Regs) > 1 {
		zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(cfg.Regs)-1))
	}

	val := make([]byte, 0, cfg.ValueBytes+24)
	val = append(val, '"')
	for i := 0; i < cfg.ValueBytes; i++ {
		val = append(val, 'x')
	}
	val = append(val, '"')
	var (
		uniqueTag []byte
		uniqueCtr uint64
	)
	if cfg.UniqueValues {
		uniqueTag = []byte(fmt.Sprintf("u%x-", uint64(seed)))
	}
	readReq := wire.Request{Op: "read"}
	writeReq := wire.Request{Op: "write", Val: val}

	open := cfg.Rate > 0
	var meanGapNs float64
	if open {
		meanGapNs = float64(cfg.Conns) / cfg.Rate * 1e9
	}
	endNs := int64(cfg.Duration)
	// First arrival: one exponential gap in, so the per-connection
	// processes don't all fire at t=0 in lockstep.
	next := int64(0)
	if open {
		next = int64(rng.ExpFloat64() * meanGapNs)
	}

	for {
		now := int64(time.Since(epoch))
		if open {
			if next >= endNs {
				break
			}
			if next > now {
				if err := cn.wr.Flush(); err != nil {
					return err
				}
				time.Sleep(time.Duration(next - now))
				now = int64(time.Since(epoch))
			}
		} else {
			if now >= endNs {
				break
			}
			next = now
		}

		load.Arrive()
		if err := cn.waitRoom(); err != nil {
			return err
		}

		req := &readReq
		if rng.Float64() >= cfg.ReadFrac {
			req = &writeReq
			if uniqueTag != nil {
				// Rebuild the payload in place: quote, tag, counter, pad.
				// The wire writer copies the bytes out before returning,
				// so the buffer is free again by the next iteration.
				val = append(val[:1], uniqueTag...)
				val = strconv.AppendUint(val, uniqueCtr, 16)
				uniqueCtr++
				for len(val) < cfg.ValueBytes+1 {
					val = append(val, 'x')
				}
				val = append(val, '"')
				writeReq.Val = val
			}
		}
		if zipf != nil {
			req.Reg = cfg.Regs[zipf.Uint64()]
		} else if len(cfg.Regs) == 1 {
			req.Reg = cfg.Regs[0]
		}
		id := cn.sent
		cn.sent++
		cn.stamp(id, next)
		req.ID = id
		if err := cn.wr.WriteRequest(req); err != nil {
			return err
		}

		if open {
			next += int64(rng.ExpFloat64() * meanGapNs)
		}
	}
	if err := cn.wr.Flush(); err != nil {
		return err
	}

	// Drain: wait (bounded) for the reaper to retire the in-flight tail.
	deadline := time.NewTimer(drainTimeout)
	defer deadline.Stop()
	for cn.done.Load() < cn.sent {
		if cn.dead.Load() {
			return errReaderDead
		}
		select {
		case <-cn.wake:
		case <-deadline.C:
			return fmt.Errorf("loadgen: %d responses still outstanding after %v",
				cn.sent-cn.done.Load(), drainTimeout)
		}
	}
	return nil
}

// Run executes one load step against a running server and reports its
// measurement.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	ring := cfg.Ring
	if ring == 0 {
		// Historic default: Depth itself rounds up to a power of two and
		// doubles as the ring (see doc.go on the rounding).
		cfg.Depth = nextPow2(cfg.Depth)
		ring = cfg.Depth
	} else {
		if ring&(ring-1) != 0 {
			return Result{}, fmt.Errorf("loadgen: Ring %d is not a power of two", ring)
		}
		if ring < cfg.Depth {
			return Result{}, fmt.Errorf("loadgen: Ring %d is smaller than Depth %d", ring, cfg.Depth)
		}
	}

	conns := make([]*lgConn, cfg.Conns)
	for i := range conns {
		cn, err := dialConn(cfg.Addr, cfg.Depth, ring)
		if err != nil {
			for _, c := range conns[:i] {
				c.conn.Close()
			}
			return Result{}, fmt.Errorf("loadgen: dial %s: %w", cfg.Addr, err)
		}
		conns[i] = cn
	}
	defer func() {
		for _, cn := range conns {
			cn.conn.Close()
		}
	}()

	load := obs.NewLoad()
	epoch := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(conns))
	for i, cn := range conns {
		wg.Add(1)
		go cn.reap(epoch, load)
		go func(i int, cn *lgConn) {
			defer wg.Done()
			errs[i] = cn.drive(cfg, epoch, load, cfg.Seed+int64(i)*1664525+1)
		}(i, cn)
	}
	wg.Wait()
	elapsed := time.Since(epoch)
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}

	var merged obs.Hist
	for _, cn := range conns {
		merged.Merge(&cn.hist)
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

// settle is the pause between sweep steps: long enough for the previous
// step's connections to finish tearing down server-side and for a forced
// collection of its garbage, so one step's tail never pollutes the next
// step's latency distribution.
const settle = 200 * time.Millisecond

// Sweep measures a saturation curve: a closed-loop probe finds the
// server's peak throughput, then one open-loop step per fraction offers
// frac x peak and reports the latency distribution there. The returned
// results start with the probe.
func Sweep(cfg Config, fracs []float64) ([]Result, error) {
	probeCfg := cfg
	probeCfg.Rate = 0
	probe, err := Run(probeCfg)
	if err != nil {
		return nil, fmt.Errorf("loadgen: peak probe: %w", err)
	}
	probe.Name = "probe"
	results := []Result{probe}
	peak := probe.Load.AchievedPS
	for _, frac := range fracs {
		runtime.GC()
		time.Sleep(settle)
		stepCfg := cfg
		stepCfg.Rate = frac * peak
		r, err := Run(stepCfg)
		if err != nil {
			return nil, fmt.Errorf("loadgen: step %.0f%%: %w", frac*100, err)
		}
		r.Name = fmt.Sprintf("load-%.0f", frac*100)
		results = append(results, r)
	}
	return results, nil
}
