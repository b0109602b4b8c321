package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/linz"
	"repro/internal/netreg"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/wire"
)

const (
	// replicas is the cluster size of the cluster-* workloads: the
	// smallest that tolerates a crash, so a quorum is 2 of 3.
	replicas = 3
	// firstOpWait bounds how long set-up waits for a fresh quorum client
	// to serve its first read.
	firstOpWait = time.Second
)

// sysOpts selects what a network system is built with beyond the plain
// public API: the per-layer tallies of a traced run, or the journals of
// the verify pass.
type sysOpts struct {
	traced  bool
	journal bool
}

// netSys is one running network workload: its servers, its two client
// handles and their slots.
type netSys struct {
	w       *workload
	servers []*netreg.Server
	qs      []*replica.QClient
	cs      []*netreg.Client[string]
	newOps  []func() ops // per handle: a fresh ops value for one slot
	slots   [][]*slot
	traced  bool
	issued  issuedCounts
	ctx     trialCtx

	// Per-layer tallies of a traced system.
	tally        *obs.Replica
	cwire, swire *obs.Wire
	rpc          *obs.RPC
	writeCalls   atomic.Int64

	// Journals of a verify system, in linz.NewOnlineParts form.
	parts []linz.JournalPart
}

// startNet starts w's servers in this process on loopback and dials its
// two client handles. The caller closes the system.
func startNet(w *workload, o sysOpts) (*netSys, error) {
	s := &netSys{w: w, traced: o.traced}
	s.ctx = trialCtx{issued: &s.issued, valueBytes: w.valueBytes, check: s.check}
	if o.traced {
		s.tally = obs.NewReplica(replicas)
		s.cwire, s.swire, s.rpc = obs.NewWire(), obs.NewWire(), obs.NewRPC()
	}
	initial := json.RawMessage(encodeValue(nil, 0, 0, w.valueBytes))
	nservers, ports := 1, handles
	if w.kind == kindCluster {
		nservers, ports = replicas, 1
	}
	var addrs []string
	for i := 0; i < nservers; i++ {
		st, err := netreg.NewStore(initial, ports, nil)
		if err != nil {
			s.close()
			return nil, err
		}
		var sopts []netreg.ServeOption
		if o.traced {
			sopts = append(sopts, netreg.WithServerWire(s.swire))
		}
		if o.journal {
			j := obs.NewJournal(obs.WithJournalRing(1 << 16))
			sopts = append(sopts, netreg.WithJournal(j))
			s.parts = append(s.parts, linz.JournalPart{J: j, Prefix: fmt.Sprintf("r%d/", i)})
		}
		srv, err := netreg.Serve("127.0.0.1:0", st, sopts...)
		if err != nil {
			s.close()
			return nil, err
		}
		s.servers = append(s.servers, srv)
		addrs = append(addrs, srv.Addr())
	}

	dial := func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	if o.traced {
		dial = countingDialer(dial, &s.writeCalls)
	}
	var qj *obs.Journal
	if o.journal && w.kind == kindCluster {
		qj = obs.NewJournal(obs.WithJournalRing(1 << 16))
		s.parts = append(s.parts, linz.JournalPart{J: qj, Prefix: "q/"})
	}
	for h := 0; h < handles; h++ {
		var mk func() ops
		switch w.kind {
		case kindCluster:
			q, err := replica.Dial(addrs, replica.Options{
				Mode: w.mode, WriterID: uint32(h + 1), Timeout: opTimeout,
				Journal: qj, Tally: s.tally, Wire: s.cwire, Dialer: dial,
			})
			if err != nil {
				s.close()
				return nil, err
			}
			s.qs = append(s.qs, q)
			mk = func() ops { return &quorumOps{q: q} }
			s.ctx.callNames = [2]string{"replica.ReadInto", "replica.WriteStamped"}
		default:
			dopts := []netreg.DialOption{netreg.WithTimeout(opTimeout), netreg.WithDialer(dial)}
			if o.traced {
				dopts = append(dopts, netreg.WithRPCStats(s.rpc), netreg.WithWireStats(s.cwire))
			}
			c, err := netreg.Dial[string](addrs[0], dopts...)
			if err != nil {
				s.close()
				return nil, err
			}
			s.cs = append(s.cs, c)
			port := h
			mk = func() ops { return &netOps{c: c, port: port} }
			s.ctx.callNames = [2]string{"netreg.Client.Do", "netreg.Client.Do"}
		}
		s.newOps = append(s.newOps, mk)
	}
	return s, nil
}

// handleSlots builds each handle's slots on first use, outside the set-up
// time: their histograms are the benchmark's memory, not the system's.
func (s *netSys) handleSlots() [][]*slot {
	if s.slots == nil {
		for h, mk := range s.newOps {
			var hs []*slot
			for i := 0; i < slotsPerHandle; i++ {
				sl := &slot{ops: mk(), id: h*slotsPerHandle + i, wid: h + 1}
				if s.traced {
					sl.spans = make([]span, 0, spanCap)
				}
				hs = append(hs, sl)
			}
			s.slots = append(s.slots, hs)
		}
	}
	return s.slots
}

// firstOps completes one read through each handle: the end of set-up.
// replica.Dial returns before its dispatchers have marked their
// connections up, and an op in that window fails at once with
// ErrNoQuorum; set-up lasts until the client can serve, so such a read
// is retried for up to firstOpWait.
func (s *netSys) firstOps() error {
	for _, mk := range s.newOps {
		o := mk()
		deadline := time.Now().Add(firstOpWait)
		val, err := o.read()
		for errors.Is(err, replica.ErrNoQuorum) && time.Now().Before(deadline) {
			runtime.Gosched()
			val, err = o.read()
		}
		if err == nil {
			err = s.check(val)
		}
		if err != nil {
			return fmt.Errorf("first op: %w", err)
		}
	}
	return nil
}

func (s *netSys) check(val []byte) error { return s.issued.check(val, s.w.valueBytes) }

// trial runs one open-loop trial against the system. On a cluster, each
// handle's writes run one at a time on its slot 0: a quorum client is one
// writer identity, and two concurrent writes under one identity could
// install different values under the same timestamp. The single server
// orders writes itself, so there every slot serves both kinds.
func (s *netSys) trial(spec loadSpec) *trialResult {
	return runTrial(s.handleSlots(), s.ctx, spec, s.w.kind == kindCluster)
}

// close shuts the clients down before the servers, so every journal
// source is closed once it returns.
func (s *netSys) close() {
	for _, q := range s.qs {
		q.Close()
	}
	for _, c := range s.cs {
		c.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
}

// quorumOps drives one slot through the quorum engine's zero-allocation
// read and its write.
type quorumOps struct {
	q   *replica.QClient
	buf []byte
}

func (o *quorumOps) read() ([]byte, error) {
	var err error
	o.buf, _, _, err = o.q.ReadInto(o.buf)
	return o.buf, err
}

func (o *quorumOps) write(val []byte) error {
	_, _, err := o.q.WriteStamped(val)
	return err
}

// netOps drives one slot through the pipelined single-server client.
// Each handle reads through its own port.
type netOps struct {
	c    *netreg.Client[string]
	port int
	req  wire.Request
}

func (o *netOps) read() ([]byte, error) {
	o.req = wire.Request{Op: "read", Port: o.port}
	resp, err := o.c.Do(&o.req)
	return resp.Val, err
}

func (o *netOps) write(val []byte) error {
	o.req = wire.Request{Op: "write", Val: val}
	_, err := o.c.Do(&o.req)
	return err
}

// countConn counts the Write calls — one syscall each — a client makes
// on its connection.
type countConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

func countingDialer(dial func(string) (net.Conn, error), n *atomic.Int64) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return &countConn{Conn: c, writes: n}, nil
	}
}

// layerCounts is a snapshot of a traced system's cumulative tallies. Only
// traced trials run on a traced system, so the per-layer metrics are the
// delta across them.
type layerCounts struct {
	readOK, writeOK, readRounds, writeRounds    int64
	combined, fast, elided, noQuorum, replFails int64
	framesIn, framesOut, bytesIn, bytesOut      int64
	serverBytes, writeCalls, retries, timeouts  int64
}

func (s *netSys) counts() layerCounts {
	var c layerCounts
	if s.tally != nil && s.w.kind == kindCluster {
		c.readOK, c.writeOK = s.tally.Ok(obs.QRead), s.tally.Ok(obs.QWrite)
		c.readRounds, c.writeRounds = s.tally.Rounds(obs.QRead), s.tally.Rounds(obs.QWrite)
		c.combined, c.fast, c.elided = s.tally.Combined(obs.QRead), s.tally.Fast(obs.QRead), s.tally.Elided(obs.QRead)
		c.noQuorum = s.tally.NoQuorum(obs.QRead) + s.tally.NoQuorum(obs.QWrite)
		for i := 0; i < replicas; i++ {
			_, fail := s.tally.ReplicaHealth(i)
			c.replFails += fail
		}
	}
	c.framesIn, c.framesOut = s.cwire.Frames()
	c.bytesIn, c.bytesOut = s.cwire.Bytes()
	in, out := s.swire.Bytes()
	c.serverBytes = in + out
	c.writeCalls = s.writeCalls.Load()
	if s.rpc != nil {
		c.retries = s.rpc.Retries(obs.RPCRead) + s.rpc.Retries(obs.RPCWrite)
		c.timeouts = s.rpc.Timeouts(obs.RPCRead) + s.rpc.Timeouts(obs.RPCWrite)
	}
	return c
}

func (c layerCounts) sub(o layerCounts) layerCounts {
	return layerCounts{
		c.readOK - o.readOK, c.writeOK - o.writeOK, c.readRounds - o.readRounds, c.writeRounds - o.writeRounds,
		c.combined - o.combined, c.fast - o.fast, c.elided - o.elided, c.noQuorum - o.noQuorum, c.replFails - o.replFails,
		c.framesIn - o.framesIn, c.framesOut - o.framesOut, c.bytesIn - o.bytesIn, c.bytesOut - o.bytesOut,
		c.serverBytes - o.serverBytes, c.writeCalls - o.writeCalls, c.retries - o.retries, c.timeouts - o.timeouts,
	}
}

// verifyNet is the untimed verify pass: a fresh, journaled system runs at
// a tenth of the low rate while linz certifies every journal online — the
// servers' and, on a cluster, the quorum clients' logical operations,
// merged as in linz.NewOnlineParts. The lower rate leaves the quiescent
// gaps the checker cuts its windows at; a register under continuous
// overlap is one window whose search can outlast the check timeout. It
// returns the number of operations checked.
func verifyNet(w *workload, o runOpts) (int64, error) {
	s, err := startNet(w, sysOpts{journal: true})
	if err != nil {
		return 0, err
	}
	tally := obs.NewLinz()
	ol := linz.NewOnlineParts(s.parts, linz.OnlineOptions{
		Interval: 10 * time.Millisecond, CheckTimeout: 2 * time.Second, Tally: tally,
	})
	initial := obs.HashVal(encodeValue(nil, 0, 0, w.valueBytes))
	for _, p := range s.parts {
		ol.SetInit(p.Prefix, initial)
	}
	ol.Start()
	tr := s.trial(loadSpec{rate: w.low / 10 * o.scale, dur: o.verifyDur, readFrac: w.readFrac, seed: o.seed})
	s.close()
	ol.Stop()

	snap := tally.Snapshot()
	var errs []error
	if tr.failed+tr.undrained > 0 {
		errs = append(errs, fmt.Errorf("%d of %d verify ops failed: %v", tr.failed+tr.undrained, tr.due, tr.firstErr))
	}
	if f := ol.FirstFailure(); f != nil {
		errs = append(errs, fmt.Errorf("journal not atomic: %s", f.Reason))
	}
	if snap.WindowsViolation+snap.WindowsUndecided+snap.ShedOps+snap.JournalDrops > 0 {
		errs = append(errs, fmt.Errorf("journal check incomplete: %d violating, %d undecided windows, %d shed ops, %d dropped records",
			snap.WindowsViolation, snap.WindowsUndecided, snap.ShedOps, snap.JournalDrops))
	}
	if snap.OpsChecked == 0 {
		errs = append(errs, errors.New("verify pass checked no operations"))
	}
	return snap.OpsChecked, errors.Join(errs...)
}
