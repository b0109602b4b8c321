package main

import (
	"encoding/json"
	"fmt"
	mathrand "math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/faultnet"
	"repro/internal/linz"
	"repro/internal/netreg"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/wire"
)

// replicaSeed seeds the -replica mode's workload mixes and its kill
// plan; one fixed seed keeps the table replayable.
const replicaSeed = 20260808

// replicaBaseRow is the single-server reference: one client, one server,
// one round trip per operation — the RTT the quorum modes are measured
// against.
type replicaBaseRow struct {
	Ops         int     `json:"ops"`
	ReadMeanUs  float64 `json:"read_mean_us"`
	WriteMeanUs float64 `json:"write_mean_us"`
	OpsPerSec   float64 `json:"ops_per_sec"`
}

// replicaModeRow is one protocol variant's measurement over the m-replica
// cluster under the mixed (90% read) workload.
type replicaModeRow struct {
	Mode             string  `json:"mode"`
	Ops              int     `json:"ops"`
	ReadRoundsPerOp  float64 `json:"read_rounds_per_op"`
	WriteRoundsPerOp float64 `json:"write_rounds_per_op"`
	FastReadFrac     float64 `json:"fast_read_frac"`
	ReadMeanUs       float64 `json:"read_mean_us"`
	WriteMeanUs      float64 `json:"write_mean_us"`
	ReadRTTOverhead  float64 `json:"read_rtt_overhead_vs_single"`
	BytesPerOp       float64 `json:"bytes_per_op"`
	OpsPerSec        float64 `json:"ops_per_sec"`
	NoQuorum         int64   `json:"no_quorum"`
}

// replicaSoakRow is the tolerated-crash soak: f of m replicas killed
// permanently mid-run from a seeded plan, every journal merged and
// certified online.
type replicaSoakRow struct {
	Seed       int64  `json:"seed"`
	Replicas   int    `json:"replicas"`
	Killed     int    `json:"killed"`
	Ops        int64  `json:"ops_completed"`
	NoQuorum   int64  `json:"no_quorum"`
	OpsChecked int64  `json:"ops_checked"`
	WindowsOK  int64  `json:"windows_ok"`
	Certified  bool   `json:"certified_atomic_online"`
	Verdict    string `json:"verdict"`
}

// replicaBench is the BENCH_replica.json document.
type replicaBench struct {
	OpsTarget int              `json:"ops_target"`
	Replicas  int              `json:"replicas"`
	Quorum    int              `json:"quorum"`
	Baseline  replicaBaseRow   `json:"single_server_baseline"`
	Modes     []replicaModeRow `json:"modes"`
	Soak      replicaSoakRow   `json:"crash_soak"`
}

// replicaTable runs the T-replica measurements: plain ABD vs the
// fast-path variant over an m=3 cluster (rounds/op, RTT overhead vs a
// single server, bytes/op), then the tolerated-crash soak — f=2 of m=5 replicas killed permanently mid-run under a seeded
// plan, with the per-replica journals and the quorum clients' logical
// journal merged and certified atomic online. With jsonOut it writes
// BENCH_replica.json.
func replicaTable(ops int, jsonOut bool) error {
	const m = 3
	n := ops
	if n > 20000 {
		n = 20000
	}
	if n < 50 {
		n = 50
	}

	fmt.Println("== T-replica: ABD quorum register over m independent servers ==")
	fmt.Println()

	base, err := replicaBaseline(n)
	if err != nil {
		return fmt.Errorf("single-server baseline: %w", err)
	}
	fmt.Printf("%-8s %6d ops  read %7.1fµs  write %7.1fµs  %9.0f ops/s  (one round trip per op)\n",
		"single", base.Ops, base.ReadMeanUs, base.WriteMeanUs, base.OpsPerSec)

	var rows []replicaModeRow
	for _, mode := range []replica.Mode{replica.ModeABD, replica.ModeFast} {
		row, err := replicaModeRun(mode, m, n, base)
		if err != nil {
			return fmt.Errorf("%s row: %w", mode, err)
		}
		rows = append(rows, row)
		fmt.Printf("%-8s %6d ops  read %7.1fµs (%.2f rounds, %4.0f%% fast, %.2fx single)  write %7.1fµs  %6.0f B/op  %9.0f ops/s\n",
			row.Mode, row.Ops, row.ReadMeanUs, row.ReadRoundsPerOp, row.FastReadFrac*100,
			row.ReadRTTOverhead, row.WriteMeanUs, row.BytesPerOp, row.OpsPerSec)
		if row.NoQuorum != 0 {
			return fmt.Errorf("%s: %d no-quorum failures on a healthy cluster", row.Mode, row.NoQuorum)
		}
	}
	// The variants must actually vary: plain ABD pays two rounds per
	// read; the fast path must beat it whenever any read hit agreement.
	if abd, fast := rows[0], rows[1]; abd.ReadRoundsPerOp != 2 || fast.ReadRoundsPerOp >= abd.ReadRoundsPerOp {
		return fmt.Errorf("fast path never engaged: abd %.2f rounds/read, fast %.2f", abd.ReadRoundsPerOp, fast.ReadRoundsPerOp)
	}

	soak, err := replicaSoak(n)
	if err != nil {
		return fmt.Errorf("crash soak: %w", err)
	}
	fmt.Printf("%-8s seed %d: %d of %d replicas killed mid-run, %d ops completed (%d no-quorum), %d ops checked in %d windows: %s\n",
		"soak", soak.Seed, soak.Killed, soak.Replicas, soak.Ops, soak.NoQuorum, soak.OpsChecked, soak.WindowsOK, soak.Verdict)
	if !soak.Certified {
		return fmt.Errorf("crash soak failed certification: %s", soak.Verdict)
	}

	fmt.Println()
	fmt.Println("reads and writes are two majority round trips (query-max-timestamp,")
	fmt.Println("write-back); the fast path skips a read's write-back when the quorum")
	fmt.Println("already agrees — same atomicity, certified online even while a")
	fmt.Println("minority of replicas is crashed for good.")

	if !jsonOut {
		return nil
	}
	doc := replicaBench{
		OpsTarget: ops,
		Replicas:  m,
		Quorum:    m/2 + 1,
		Baseline:  base,
		Modes:     rows,
		Soak:      soak,
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_replica.json", append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println()
	fmt.Println("wrote BENCH_replica.json")
	return nil
}

// replicaVal builds the workload's JSON value: 1 KiB, large enough that
// a value's m-way fan-out dominates the bytes/op column.
func replicaVal(tag string) json.RawMessage {
	pad := make([]byte, 1024)
	for i := range pad {
		pad[i] = 'a' + byte(i%26)
	}
	v, _ := json.Marshal(tag + string(pad))
	return v
}

func replicaDialOpts(extra ...netreg.DialOption) []netreg.DialOption {
	return append([]netreg.DialOption{
		netreg.WithTimeout(time.Second),
		netreg.WithRetry(netreg.RetryPolicy{Attempts: 3, Backoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond}),
	}, extra...)
}

// replicaCluster starts m independent single-register stores.
func replicaCluster(m int, journaled bool) (addrs []string, servers []*netreg.Server, journals []*obs.Journal, err error) {
	for i := 0; i < m; i++ {
		st, err := netreg.NewStore("v0", 1, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		var opts []netreg.ServeOption
		var j *obs.Journal
		if journaled {
			j = obs.NewJournal(obs.WithJournalRing(1 << 16))
			opts = append(opts, netreg.WithJournal(j))
		}
		srv, err := netreg.Serve("127.0.0.1:0", st, opts...)
		if err != nil {
			return nil, nil, nil, err
		}
		addrs = append(addrs, srv.Addr())
		servers = append(servers, srv)
		journals = append(journals, j)
	}
	return addrs, servers, journals, nil
}

// replicaBaseline measures the single-server reference RTT: plain
// read/write ops on one store, one round trip each, with the same four
// closed-loop workers the mode rows use — so the overhead column
// isolates what replication adds, not what concurrency adds.
func replicaBaseline(n int) (replicaBaseRow, error) {
	st, err := netreg.NewStore("v0", 1, nil)
	if err != nil {
		return replicaBaseRow{}, err
	}
	srv, err := netreg.Serve("127.0.0.1:0", st)
	if err != nil {
		return replicaBaseRow{}, err
	}
	defer srv.Close()

	const workers = 4
	type lat struct {
		readSum, writeSum time.Duration
		reads, writes     int
	}
	lats := make([]lat, workers)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < workers; i++ {
		c, err := netreg.Dial[json.RawMessage](srv.Addr(), replicaDialOpts()...)
		if err != nil {
			return replicaBaseRow{}, err
		}
		defer c.Close()
		wg.Add(1)
		go func(i int, c *netreg.Client[json.RawMessage]) {
			defer wg.Done()
			val := replicaVal(fmt.Sprintf("base%d-", i))
			rng := mathrand.New(mathrand.NewSource(replicaSeed + int64(i)))
			l := &lats[i]
			for k := 0; k < n/workers; k++ {
				t0 := time.Now()
				var err error
				if rng.Float64() < 0.9 {
					_, err = c.Do(&wire.Request{Op: "read"})
					l.readSum += time.Since(t0)
					l.reads++
				} else {
					_, err = c.Do(&wire.Request{Op: "write", Val: val})
					l.writeSum += time.Since(t0)
					l.writes++
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(i, c)
	}
	wg.Wait()
	wall := time.Since(start)
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil {
			return replicaBaseRow{}, err
		}
	}

	var total lat
	for i := range lats {
		total.readSum += lats[i].readSum
		total.writeSum += lats[i].writeSum
		total.reads += lats[i].reads
		total.writes += lats[i].writes
	}
	row := replicaBaseRow{
		Ops:       total.reads + total.writes,
		OpsPerSec: float64(total.reads+total.writes) / wall.Seconds(),
	}
	if total.reads > 0 {
		row.ReadMeanUs = float64(total.readSum.Microseconds()) / float64(total.reads)
	}
	if total.writes > 0 {
		row.WriteMeanUs = float64(total.writeSum.Microseconds()) / float64(total.writes)
	}
	return row, nil
}

// replicaModeRun measures one protocol variant: 4 quorum clients over an
// m-replica cluster, 90% reads, closed loop.
func replicaModeRun(mode replica.Mode, m, n int, base replicaBaseRow) (replicaModeRow, error) {
	addrs, servers, _, err := replicaCluster(m, false)
	if err != nil {
		return replicaModeRow{}, err
	}
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()

	const workers = 4
	ws := obs.NewWire()
	tally := obs.NewReplica(m)
	clients := make([]*replica.QClient, workers)
	for i := range clients {
		q, err := replica.Dial(addrs, replica.Options{
			Mode: mode, WriterID: uint32(i + 1), Tally: tally,
			Timeout: time.Second, Wire: ws,
		})
		if err != nil {
			return replicaModeRow{}, err
		}
		defer q.Close()
		clients[i] = q
	}

	type lat struct {
		readSum, writeSum time.Duration
		reads, writes     int
	}
	lats := make([]lat, workers)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for i, q := range clients {
		wg.Add(1)
		go func(i int, q *replica.QClient) {
			defer wg.Done()
			rng := mathrand.New(mathrand.NewSource(replicaSeed + int64(i)))
			l := &lats[i]
			for k := 0; k < n/workers; k++ {
				t0 := time.Now()
				var err error
				if rng.Float64() < 0.9 {
					_, err = q.Read()
					l.readSum += time.Since(t0)
					l.reads++
				} else {
					err = q.Write(replicaVal(fmt.Sprintf("c%d-%d-", i, k)))
					l.writeSum += time.Since(t0)
					l.writes++
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(i, q)
	}
	wg.Wait()
	wall := time.Since(start)
	for range clients {
		if err := <-errs; err != nil {
			return replicaModeRow{}, err
		}
	}

	var total lat
	for i := range lats {
		total.readSum += lats[i].readSum
		total.writeSum += lats[i].writeSum
		total.reads += lats[i].reads
		total.writes += lats[i].writes
	}
	ops := total.reads + total.writes
	row := replicaModeRow{
		Mode:      mode.String(),
		Ops:       ops,
		OpsPerSec: float64(ops) / wall.Seconds(),
		NoQuorum:  tally.NoQuorum(obs.QRead) + tally.NoQuorum(obs.QWrite),
	}
	if ok := tally.Ok(obs.QRead); ok > 0 {
		row.ReadRoundsPerOp = float64(tally.Rounds(obs.QRead)) / float64(ok)
		row.FastReadFrac = float64(tally.Fast(obs.QRead)) / float64(ok)
	}
	if ok := tally.Ok(obs.QWrite); ok > 0 {
		row.WriteRoundsPerOp = float64(tally.Rounds(obs.QWrite)) / float64(ok)
	}
	if total.reads > 0 {
		row.ReadMeanUs = float64(total.readSum.Microseconds()) / float64(total.reads)
	}
	if total.writes > 0 {
		row.WriteMeanUs = float64(total.writeSum.Microseconds()) / float64(total.writes)
	}
	if base.ReadMeanUs > 0 {
		row.ReadRTTOverhead = row.ReadMeanUs / base.ReadMeanUs
	}
	if ops > 0 {
		in, out := ws.Bytes()
		row.BytesPerOp = float64(in+out) / float64(ops)
	}
	return row, nil
}

// replicaSoak is the tolerated-crash acceptance run: m=5 journaled
// replicas, a seeded plan killing f=2 permanently mid-stream, four
// journaling quorum clients (two writers and two readers, each pair one
// ABD and one Fast client), and a merged online checker over all six
// journals. Certification failing, any
// operation failing, or the kills not firing all fail the row.
func replicaSoak(n int) (replicaSoakRow, error) {
	const (
		m = 5
		f = 2
	)
	perClient := n / 4
	if perClient < 25 {
		perClient = 25
	}
	if perClient > 500 {
		perClient = 500
	}

	addrs, servers, journals, err := replicaCluster(m, true)
	if err != nil {
		return replicaSoakRow{}, err
	}
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()

	initJSON, _ := json.Marshal("v0")
	qj := obs.NewJournal(obs.WithJournalRing(1 << 16))
	tally := obs.NewReplica(m)
	lt := obs.NewLinz()

	parts := []linz.JournalPart{{J: qj, Prefix: "q/"}}
	for i, j := range journals {
		parts = append(parts, linz.JournalPart{J: j, Prefix: fmt.Sprintf("r%d/", i)})
	}
	ol := linz.NewOnlineParts(parts, linz.OnlineOptions{
		Interval:     10 * time.Millisecond,
		CheckTimeout: 2 * time.Second,
		Tally:        lt,
	})
	for _, p := range parts {
		ol.SetInit(p.Prefix, obs.HashVal(initJSON))
	}
	ol.Start()

	modes := []replica.Mode{replica.ModeABD, replica.ModeFast, replica.ModeFast, replica.ModeABD}
	clients := make([]*replica.QClient, len(modes))
	for i, mode := range modes {
		q, err := replica.Dial(addrs, replica.Options{
			Mode: mode, WriterID: uint32(i + 1), Journal: qj, Tally: tally,
			Timeout: 2 * time.Second,
		})
		if err != nil {
			return replicaSoakRow{}, err
		}
		clients[i] = q
	}

	within := time.Duration(perClient) * 2 * time.Millisecond
	kills := faultnet.PlanKills(replicaSeed, m, f, within)
	killed := 0
	var killMu sync.Mutex
	stop := faultnet.Schedule(kills, func(r int) {
		killMu.Lock()
		killed++
		killMu.Unlock()
		servers[r].Close()
	})
	defer stop()

	var wg sync.WaitGroup
	errs := make(chan error, len(clients))
	for i, q := range clients {
		wg.Add(1)
		go func(i int, q *replica.QClient) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				var err error
				if i%2 == 0 {
					err = q.Write(replicaVal(fmt.Sprintf("s%d-%d-", i, k)))
				} else {
					_, err = q.Read()
				}
				if err != nil {
					errs <- fmt.Errorf("client %d op %d: %w", i, k, err)
					return
				}
				time.Sleep(time.Millisecond)
			}
			errs <- nil
		}(i, q)
	}
	wg.Wait()
	stop()
	for range clients {
		if err := <-errs; err != nil {
			return replicaSoakRow{}, err
		}
	}

	for _, q := range clients {
		q.Close()
	}
	for _, srv := range servers {
		srv.Close()
	}
	ol.Stop()

	snap := lt.Snapshot()
	row := replicaSoakRow{
		Seed:       replicaSeed,
		Replicas:   m,
		Killed:     killed,
		Ops:        tally.Ok(obs.QRead) + tally.Ok(obs.QWrite),
		NoQuorum:   tally.NoQuorum(obs.QRead) + tally.NoQuorum(obs.QWrite),
		OpsChecked: snap.OpsChecked,
		WindowsOK:  snap.WindowsOK,
	}
	row.Certified = ol.FirstFailure() == nil && snap.WindowsViolation == 0 && row.NoQuorum == 0 && killed == f
	switch {
	case ol.FirstFailure() != nil:
		row.Verdict = "VIOLATION: " + ol.FirstFailure().Reason
	case snap.WindowsViolation != 0:
		row.Verdict = "violating windows"
	case row.NoQuorum != 0:
		row.Verdict = "quorum lost inside tolerance"
	case killed != f:
		row.Verdict = fmt.Sprintf("only %d of %d kills fired", killed, f)
	default:
		row.Verdict = "certified atomic online"
	}
	return row, nil
}
