package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/history"
	"repro/internal/linz"
	"repro/internal/netreg"
	"repro/internal/obs"
	"repro/internal/wire"
)

// The -certify mode always writes two artifacts, both uploaded by CI:
// its rows as JSON, and the synthetic non-atomic history's timeline,
// rendered lane-per-client with the violating operations highlighted.
const (
	certifyJSON   = "BENCH_certify.json"
	violationHTML = "LINZ_violation.html"
)

// faultSeed makes the faulty row deterministic: the same faults fire at
// the same points on every run, so the table (and CI) never flakes on
// luck.
const faultSeed = 20260805

// certOffline is the offline row: a journaled closed-loop run checked
// after the fact as one history.
type certOffline struct {
	Ops        int     `json:"ops"`
	Keys       int     `json:"keys"`
	Segments   int     `json:"segments"`
	Blurred    int     `json:"blurred_cuts"`
	States     int64   `json:"dfs_states"`
	Drops      uint64  `json:"journal_drops"`
	CheckSecs  float64 `json:"check_secs"`
	CheckedPS  float64 `json:"checked_ops_per_sec"`
	ServerPeak float64 `json:"server_peak_ops_per_sec"`
	Verdict    string  `json:"verdict"`
}

// certOnline is the online row: the windowed checker running live
// against a run paced to half the offline row's peak.
type certOnline struct {
	OfferedPS     float64 `json:"offered_ops_per_sec"`
	AchievedPS    float64 `json:"achieved_ops_per_sec"`
	OpsChecked    int64   `json:"ops_checked"`
	WindowsOK     int64   `json:"windows_ok"`
	WindowsViol   int64   `json:"windows_violation"`
	WindowsUndec  int64   `json:"windows_undecided"`
	ShedOps       int64   `json:"shed_ops"`
	BlurredCuts   int64   `json:"blurred_cuts"`
	Drops         int64   `json:"journal_drops"`
	CheckedPerSec float64 `json:"checked_per_busy_sec"`
	Coverage      float64 `json:"coverage_frac"`
}

// certOverhead is the journal-overhead row: closed-loop peak with the
// tap disabled vs enabled.
type certOverhead struct {
	OffPS float64 `json:"peak_journal_off_ops_per_sec"`
	OnPS  float64 `json:"peak_journal_on_ops_per_sec"`
	Pct   float64 `json:"overhead_pct"`
}

// certFaulty is the seeded faulty pipelined row: the full two-writer
// protocol over lossy links with retrying clients, certified online.
type certFaulty struct {
	Seed       int64 `json:"seed"`
	Writes     int   `json:"writes_issued"`
	Faults     int64 `json:"faults_injected"`
	Retries    int64 `json:"retries"`
	OpsChecked int64 `json:"ops_checked"`
	WindowsOK  int64 `json:"windows_ok"`
	Certified  bool  `json:"certified_atomic_online"`
}

// certViolation is the negative control: a synthetic non-atomic history
// must fail with culprits and render the timeline artifact.
type certViolation struct {
	Ops      int    `json:"ops"`
	Verdict  string `json:"verdict"`
	Culprits int    `json:"culprit_ops"`
	HTML     string `json:"timeline_html"`
	Bytes    int    `json:"timeline_bytes"`
}

// certifyBench is the certifyJSON document.
type certifyBench struct {
	OpsTarget int           `json:"ops_target"`
	Offline   certOffline   `json:"offline"`
	Online    certOnline    `json:"online"`
	Overhead  certOverhead  `json:"journal_overhead"`
	Faulty    certFaulty    `json:"faulty_pipelined_online"`
	Violation certViolation `json:"violation_demo"`
}

// certifyTable runs the T-certify measurements: how fast the windowed
// checker (internal/linz) certifies journaled histories offline, whether
// the online mode keeps up with live traffic, what the journal tap costs
// the hot path, that a seeded faulty pipelined protocol run still
// certifies atomic online, and that a known-bad history is caught and
// rendered. It writes both artifacts, certifyJSON and violationHTML.
func certifyTable(ops int) error {
	fmt.Println("== T-certify: live history journal + windowed linearizability checking ==")
	fmt.Println()

	off, err := certifyOffline(ops)
	if err != nil {
		return fmt.Errorf("offline row: %w", err)
	}
	fmt.Printf("%-10s %8d ops  %d keys  %d segments (%d blurred)  %d states  %.2fs check  %.1fM ops/s checked  verdict %s\n",
		"offline", off.Ops, off.Keys, off.Segments, off.Blurred, off.States,
		off.CheckSecs, off.CheckedPS/1e6, off.Verdict)
	if off.Verdict != "ok" {
		return fmt.Errorf("offline check of a real run returned %s", off.Verdict)
	}

	on, err := certifyOnline(ops, off.ServerPeak)
	if err != nil {
		return fmt.Errorf("online row: %w", err)
	}
	fmt.Printf("%-10s %8.0f offered/s  %8.0f achieved/s  %d ops checked (%.0f%% coverage)  windows %d ok / %d violation / %d undecided  shed %d  %.1fM ops/s checker\n",
		"online", on.OfferedPS, on.AchievedPS, on.OpsChecked, on.Coverage*100,
		on.WindowsOK, on.WindowsViol, on.WindowsUndec, on.ShedOps, on.CheckedPerSec/1e6)
	if on.WindowsViol != 0 {
		return fmt.Errorf("online checker reported %d violating windows on clean traffic", on.WindowsViol)
	}

	oh, err := certifyOverhead(ops)
	if err != nil {
		return fmt.Errorf("overhead row: %w", err)
	}
	fmt.Printf("%-10s journal off %.0f ops/s, on %.0f ops/s: %.1f%% overhead\n",
		"overhead", oh.OffPS, oh.OnPS, oh.Pct)

	fy, err := certifyFaulty(ops)
	if err != nil {
		return fmt.Errorf("faulty row: %w", err)
	}
	verdict := "certified atomic online"
	if !fy.Certified {
		verdict = "CERTIFICATION FAILED"
	}
	fmt.Printf("%-10s seed %d: %d writes over lossy links (%d faults, %d retries), %d ops checked in %d windows: %s\n",
		"faulty", fy.Seed, fy.Writes, fy.Faults, fy.Retries, fy.OpsChecked, fy.WindowsOK, verdict)
	if !fy.Certified {
		return fmt.Errorf("seeded faulty pipelined run failed online certification")
	}

	vd, err := certifyViolation()
	if err != nil {
		return fmt.Errorf("violation demo: %w", err)
	}
	fmt.Printf("%-10s %d-op synthetic history: verdict %s, %d culprit ops, timeline %s (%d bytes)\n",
		"violation", vd.Ops, vd.Verdict, vd.Culprits, vd.HTML, vd.Bytes)
	if vd.Verdict != "violation" {
		return fmt.Errorf("synthetic non-atomic history returned %s, want violation", vd.Verdict)
	}

	fmt.Println()
	fmt.Println("the journal taps every served op into per-connection SPSC rings; the")
	fmt.Println("checker partitions per register, cuts at quiescent instants below the")
	fmt.Println("journal horizon, threads the register value across cuts, and DFS-checks")
	fmt.Println("only genuinely concurrent segments — which is why million-op histories")
	fmt.Println("certify in seconds while a violating window renders as a timeline.")

	doc := certifyBench{
		OpsTarget: ops,
		Offline:   off,
		Online:    on,
		Overhead:  oh,
		Faulty:    fy,
		Violation: vd,
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(certifyJSON, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println()
	fmt.Println("wrote", certifyJSON)
	return nil
}

// certifyDur scales one measurement run's duration to the -ops budget:
// smoke tests stay fast, real runs long enough to accumulate the target.
func certifyDur(ops int) time.Duration {
	switch {
	case ops <= 10000:
		return 250 * time.Millisecond
	case ops <= 200000:
		return time.Second
	default:
		return 2 * time.Second
	}
}

// The certification workload: certClients netreg.Clients, each driven by
// certWorkers goroutines; every op names a register picked Zipf(certZipfS)
// over certRegs, hottest first; certReadFrac reads; every write a
// distinct certValBytes-byte JSON string, so two writes never alias in
// the checker. Each connection carries all three registers: the server's
// journal tap stamps a connection's ops back to back, so a register with
// a connection of its own would never go quiescent, and the checker
// could never cut its history.
const (
	certClients  = 4
	certWorkers  = 32
	certReadFrac = 0.8
	certZipfS    = 1.2
	certValBytes = 16
)

// certRegs are the registers the workload spreads over, hottest first.
var certRegs = [...]string{"", "reg1", "reg2"}

// certRun is one traffic run's accounting.
type certRun struct {
	done       int64
	achievedPS float64
}

// certifyTraffic drives the certification workload against addr for dur
// through netreg.Client.Do. With rate 0 every goroutine runs closed
// loop; with rate > 0 each one issues its share of rate ops/s on a fixed
// schedule, waiting only when it is ahead. seed fixes the op mix and the
// register picks, and is part of every write value, so runs with
// distinct seeds never repeat a value. Any failed op fails the run.
func certifyTraffic(addr string, dur time.Duration, rate float64, seed int64) (certRun, error) {
	clients := make([]*netreg.Client[json.RawMessage], certClients)
	for i := range clients {
		c, err := netreg.Dial[json.RawMessage](addr, netreg.WithTimeout(5*time.Second))
		if err != nil {
			return certRun{}, err
		}
		defer c.Close()
		clients[i] = c
	}

	const workers = certClients * certWorkers
	var gap time.Duration
	if rate > 0 {
		gap = time.Duration(workers / rate * float64(time.Second))
	}
	var done atomic.Int64
	errs := make(chan error, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(seed<<16 + int64(w)))
			zipf := rand.NewZipf(rng, certZipfS, 1, uint64(len(certRegs)-1))
			c := clients[w/certWorkers]
			tag := "s" + strconv.FormatInt(seed, 10) + "w" + strconv.Itoa(w) + "-"
			phase := time.Duration(rng.Int63n(int64(gap) + 1))
			var val []byte
			for k := 0; ; k++ {
				now := time.Since(start)
				if gap > 0 {
					at := phase + time.Duration(k)*gap
					if at >= dur {
						break
					}
					if at > now {
						time.Sleep(at - now)
					}
				} else if now >= dur {
					break
				}
				req := wire.Request{Op: "read", Reg: certRegs[zipf.Uint64()]}
				if rng.Float64() >= certReadFrac {
					val = append(append(val[:0], '"'), tag...)
					val = strconv.AppendInt(val, int64(k), 16)
					for len(val) < certValBytes+1 {
						val = append(val, 'x')
					}
					req.Op, req.Val = "write", append(val, '"')
				}
				if _, err := c.Do(&req); err != nil {
					errs <- err
					return
				}
				done.Add(1)
			}
			errs <- nil
		}(w)
	}
	var err error
	for w := 0; w < workers; w++ {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		return certRun{}, err
	}
	n := done.Load()
	return certRun{done: n, achievedPS: float64(n) / time.Since(start).Seconds()}, nil
}

// certifyServer starts a journaled in-process server hosting the
// workload's registers.
func certifyServer(j *obs.Journal) (*netreg.Server, error) {
	st, err := netreg.NewStore("x", 1, nil)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"reg1", "reg2"} {
		if err := netreg.AddRegister(st, name, "x", 1, nil); err != nil {
			return nil, err
		}
	}
	var opts []netreg.ServeOption
	if j != nil {
		opts = append(opts, netreg.WithJournal(j))
	}
	return netreg.Serve("127.0.0.1:0", st, opts...)
}

// drainInto pumps journal records into a per-key history accumulation
// until stop is closed, then drains once more. Flagged records (refused
// ops, dedup replays) are skipped, as the checkers would. The history is
// the drainer's alone until done closes.
func drainInto(j *obs.Journal, h *linz.History, stop <-chan struct{}, done chan<- struct{}) {
	names := map[uint32]string{}
	drain := func() {
		for _, s := range j.Sources() {
			s.Drain(func(r obs.Rec) {
				if r.Flags != 0 {
					return
				}
				name, ok := names[r.Key]
				if !ok {
					name = j.KeyName(r.Key)
					names[r.Key] = name
				}
				kind := linz.Read
				if r.Kind == obs.JWrite {
					kind = linz.Write
				}
				h.Add(name, linz.Op{Inv: r.Inv, Res: r.Res, Val: r.Val, Client: r.Client, Kind: kind})
			})
		}
	}
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			drain()
			close(done)
			return
		case <-tick.C:
			drain()
		}
	}
}

// certifyOffline accumulates a journaled closed-loop run of ≈ ops
// operations and checks the whole history offline.
func certifyOffline(ops int) (certOffline, error) {
	j := obs.NewJournal(obs.WithJournalRing(1 << 17))
	srv, err := certifyServer(j)
	if err != nil {
		return certOffline{}, err
	}
	defer srv.Close()

	h := linz.NewHistory()
	stop := make(chan struct{})
	done := make(chan struct{})
	go drainInto(j, h, stop, done)

	var peak float64
	var total int64
	for iter := 0; total < int64(ops) && iter < 40; iter++ {
		r, err := certifyTraffic(srv.Addr(), certifyDur(ops), 0, int64(iter))
		if err != nil {
			close(stop)
			<-done
			return certOffline{}, err
		}
		total += r.done
		peak = max(peak, r.achievedPS)
	}
	srv.Close() // closes conns → taps close → horizon unbounded
	close(stop)
	<-done

	rep := linz.Check(h, linz.Options{Timeout: 60 * time.Second})
	row := certOffline{
		Ops:        rep.Ops,
		Keys:       rep.Keys,
		Segments:   rep.Segments,
		Blurred:    rep.Blurred,
		States:     rep.States,
		Drops:      j.Drops(),
		CheckSecs:  rep.Elapsed.Seconds(),
		ServerPeak: peak,
		Verdict:    rep.Verdict.String(),
	}
	if rep.Elapsed > 0 {
		row.CheckedPS = float64(rep.Ops) / rep.Elapsed.Seconds()
	}
	return row, nil
}

// certifyOnline runs the windowed checker live against a run paced to
// half the measured peak — the regime the online mode is built for.
func certifyOnline(ops int, peak float64) (certOnline, error) {
	j := obs.NewJournal(obs.WithJournalRing(1 << 17))
	srv, err := certifyServer(j)
	if err != nil {
		return certOnline{}, err
	}
	defer srv.Close()

	tally := obs.NewLinz()
	ol := linz.NewOnline(j, linz.OnlineOptions{
		Interval:     25 * time.Millisecond,
		CheckTimeout: 2 * time.Second,
		Tally:        tally,
	})
	ol.Start()

	rate := max(peak/2, 1000)
	dur := max(certifyDur(ops), time.Duration(float64(ops)/rate*float64(time.Second)))
	r, err := certifyTraffic(srv.Addr(), min(dur, 6*time.Second), rate, 0)
	if err != nil {
		srv.Close()
		ol.Stop()
		return certOnline{}, err
	}
	srv.Close() // taps close → the final sweep sees an unbounded horizon
	ol.Stop()

	if f := ol.FirstFailure(); f != nil {
		return certOnline{}, fmt.Errorf("online checker failed clean traffic: %s", f.Reason)
	}
	snap := tally.Snapshot()
	row := certOnline{
		OfferedPS:     rate,
		AchievedPS:    r.achievedPS,
		OpsChecked:    snap.OpsChecked,
		WindowsOK:     snap.WindowsOK,
		WindowsViol:   snap.WindowsViolation,
		WindowsUndec:  snap.WindowsUndecided,
		ShedOps:       snap.ShedOps,
		BlurredCuts:   snap.BlurredCuts,
		Drops:         snap.JournalDrops,
		CheckedPerSec: snap.CheckedPerSec,
	}
	if r.done > 0 {
		row.Coverage = float64(snap.OpsChecked) / float64(r.done)
	}
	return row, nil
}

// certifyOverhead probes the closed-loop peak with the journal tap
// disabled and enabled. The enabled run drains and discards on a relaxed
// cadence (the ring absorbs bursts; production drains from a spare core),
// so what's measured is the tap itself, not the drainer's CPU share.
// Probes alternate and each side keeps its best, which squeezes
// scheduler noise out of the comparison on small machines.
func certifyOverhead(ops int) (certOverhead, error) {
	dur := certifyDur(ops)
	probe := func(j *obs.Journal) (float64, error) {
		srv, err := certifyServer(j)
		if err != nil {
			return 0, err
		}
		defer srv.Close()
		if j != nil {
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				tick := time.NewTicker(2 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						for _, s := range j.Sources() {
							s.Drain(func(obs.Rec) {})
						}
					}
				}
			}()
			defer func() { close(stop); <-done }()
		}
		r, err := certifyTraffic(srv.Addr(), dur, 0, 0)
		if err != nil {
			return 0, err
		}
		return r.achievedPS, nil
	}

	var row certOverhead
	for i := 0; i < 3; i++ {
		off, err := probe(nil)
		if err != nil {
			return certOverhead{}, err
		}
		if off > row.OffPS {
			row.OffPS = off
		}
		on, err := probe(obs.NewJournal())
		if err != nil {
			return certOverhead{}, err
		}
		if on > row.OnPS {
			row.OnPS = on
		}
	}
	if row.OffPS > 0 {
		row.Pct = (row.OffPS - row.OnPS) / row.OffPS * 100
	}
	return row, nil
}

// certifyFaulty runs the full two-writer protocol over seeded lossy
// links — every port of a node sharing one pipelined connection, drops
// and severs injected, clients retrying — with both register servers
// journaled and online checkers live. The run must certify atomic
// online: at-most-once application (dedup replays are journaled
// flagged) is exactly what the checker would catch failing.
func certifyFaulty(ops int) (certFaulty, error) {
	const readers = 2
	writesPerNode := ops / 500
	if writesPerNode < 20 {
		writesPerNode = 20
	}
	if writesPerNode > 200 {
		writesPerNode = 200
	}

	seq := new(history.Sequencer)
	type val = core.Tagged[string]

	tally := obs.NewLinz()
	journals := make([]*obs.Journal, 2)
	onlines := make([]*linz.Online, 2)
	servers := make([]*netreg.Server, 2)
	regs := make([]*netreg.Reg[val], 2)

	plan := &faultnet.Plan{Seed: faultSeed, DropProb: 0.05, SeverProb: 0.02}
	rpc := obs.NewRPC()
	opts := []netreg.DialOption{
		netreg.WithDialer(plan.Dialer()),
		netreg.WithTimeout(250 * time.Millisecond),
		netreg.WithRetry(netreg.RetryPolicy{Attempts: 40, Backoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond}),
		netreg.WithRPCStats(rpc),
	}

	for i := range servers {
		st, err := netreg.NewStore(val{Val: "v0"}, readers+1, seq)
		if err != nil {
			return certFaulty{}, err
		}
		journals[i] = obs.NewJournal()
		srv, err := netreg.Serve("127.0.0.1:0", st, netreg.WithJournal(journals[i]))
		if err != nil {
			return certFaulty{}, err
		}
		defer srv.Close()
		servers[i] = srv
		if regs[i], err = netreg.NewSharedReg[val](srv.Addr(), readers+1, opts...); err != nil {
			return certFaulty{}, err
		}
		defer regs[i].Close()
		onlines[i] = linz.NewOnline(journals[i], linz.OnlineOptions{
			Interval:     10 * time.Millisecond,
			CheckTimeout: 2 * time.Second,
			Tally:        tally,
		})
		onlines[i].Start()
	}

	tw := core.New(readers, "v0",
		core.WithRegisters[string](regs[0], regs[1]),
		core.WithSequencer[string](seq))

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

	for i := range servers {
		servers[i].Close()
		onlines[i].Stop()
	}

	certified := true
	for _, ol := range onlines {
		if ol.FirstFailure() != nil {
			certified = false
		}
	}
	snap := tally.Snapshot()
	if snap.WindowsViolation != 0 || snap.WindowsUndecided != 0 {
		certified = false
	}
	return certFaulty{
		Seed:       faultSeed,
		Writes:     2 * writesPerNode,
		Faults:     plan.Stats().Total(),
		Retries:    rpc.Retries(obs.RPCRead) + rpc.Retries(obs.RPCWrite),
		OpsChecked: snap.OpsChecked,
		WindowsOK:  snap.WindowsOK,
		Certified:  certified,
	}, nil
}

// syntheticViolation is the negative control: the Section 8 disagreement
// shape. Four writers write distinct values concurrently; two readers,
// reading twice during the writes, observe two of those values in
// opposite orders — so any linearization needs both w(1)<w(2) and
// w(2)<w(1), and none exists.
func syntheticViolation() *linz.Report {
	const ms = int64(time.Millisecond)
	ops := []linz.Op{
		{Kind: linz.Write, Client: 0, Val: 1, Inv: 0, Res: 100 * ms},
		{Kind: linz.Write, Client: 1, Val: 2, Inv: 2 * ms, Res: 98 * ms},
		{Kind: linz.Write, Client: 2, Val: 3, Inv: 4 * ms, Res: 96 * ms},
		{Kind: linz.Write, Client: 3, Val: 4, Inv: 6 * ms, Res: 94 * ms},
		{Kind: linz.Read, Client: 4, Val: 1, Inv: 10 * ms, Res: 20 * ms},
		{Kind: linz.Read, Client: 4, Val: 2, Inv: 30 * ms, Res: 40 * ms},
		{Kind: linz.Read, Client: 5, Val: 2, Inv: 12 * ms, Res: 22 * ms},
		{Kind: linz.Read, Client: 5, Val: 1, Inv: 32 * ms, Res: 42 * ms},
	}
	return linz.CheckKey("tournament", linz.Value{Known: true, V: 0}, ops,
		linz.Options{Timeout: 10 * time.Second})
}

// certifyViolation checks the negative control fails and renders its
// timeline artifact.
func certifyViolation() (certViolation, error) {
	rep := syntheticViolation()
	row := certViolation{Ops: rep.Ops, Verdict: rep.Verdict.String(), HTML: violationHTML}
	if len(rep.Failures) == 0 {
		return row, fmt.Errorf("no failure to render (verdict %s)", rep.Verdict)
	}
	f := &rep.Failures[0]
	row.Culprits = len(f.Culprits())

	out, err := os.Create(violationHTML)
	if err != nil {
		return row, err
	}
	if err := linz.RenderTimeline(f, out); err != nil {
		out.Close()
		return row, err
	}
	if err := out.Close(); err != nil {
		return row, err
	}
	info, err := os.Stat(violationHTML)
	if err != nil {
		return row, err
	}
	row.Bytes = int(info.Size())
	return row, nil
}
