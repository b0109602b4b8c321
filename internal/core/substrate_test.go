package core_test

// Cross-substrate conformance: the protocol's atomicity must not depend on
// which real-register substrate it runs over. Three layers of evidence:
//
//  1. Schedule replay: every interleaving of a small configuration,
//     enumerated by the sched step machine, is forced onto a REAL TwoWriter
//     built over each fast substrate (a gating decorator blocks every real
//     register access until the schedule calls that processor's number),
//     and the recorded history is checked by the exhaustive Wing–Gong
//     checker. This is the sched exploration result, re-established against
//     the actual lock-free memory operations instead of the step machine's
//     model of them.
//  2. Randomized concurrent workloads per substrate, checked exhaustively.
//  3. Randomized concurrent workloads on the unrecorded fast paths, the
//     ones the benchmark runs, recorded from outside the register and
//     checked exhaustively.
//  4. A -race soak: two writers and four readers hammer a fast-substrate
//     TwoWriter with no gating and no recording, with per-writer
//     monotonicity as the checked invariant (and the race detector
//     checking everything else).

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/atomicity"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/register"
	"repro/internal/sched"
)

// fastSubstrates are the substrates without a serializing lock; the
// certifiable default is included in the sweeps as the reference point.
var allSubstrates = []core.Substrate{core.Certifiable, core.FastPointer, core.FastSeqlock}

// gate releases real-register accesses one at a time, in the exact order
// of an interleaving enumerated by the sched step machine.
type gate struct {
	mu    sync.Mutex
	cond  *sync.Cond
	sched []int // sched[k] = processor taking step k (0,1 writers; 2+j reader j)
	pos   int
}

func newGate(s []int) *gate {
	g := &gate{sched: s}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// run blocks until the schedule's next step belongs to proc, executes f
// while holding the gate (the schedule is a total order of real accesses),
// and releases the next step.
func (g *gate) run(proc int, f func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.pos < len(g.sched) && g.sched[g.pos] != proc {
		g.cond.Wait()
	}
	if g.pos >= len(g.sched) {
		panic(fmt.Sprintf("gate: processor %d has no step left in schedule %v", proc, g.sched))
	}
	f()
	g.pos++
	g.cond.Broadcast()
}

// gatedReg wraps real register i of a TwoWriter and routes every access
// through the gate. The accessing processor is recoverable from the port:
// a write to register i comes from writer i, a read on port 0 from the
// opposite writer, a read on port j ≥ 1 from reader j (sched processor
// 1+j).
type gatedReg struct {
	inner register.Reg[core.Tagged[int]]
	i     int
	g     *gate
}

func (r *gatedReg) Read(port int) (v core.Tagged[int]) {
	proc := 1 - r.i
	if port >= 1 {
		proc = 1 + port
	}
	r.g.run(proc, func() { v = r.inner.Read(port) })
	return v
}

func (r *gatedReg) Write(v core.Tagged[int]) {
	r.g.run(r.i, func() { r.inner.Write(v) })
}

// rawRegs builds a pair of bare real registers of the given substrate,
// outside core.New, so they can be wrapped before wiring.
func rawRegs(t *testing.T, s core.Substrate, ports int) [2]register.Reg[core.Tagged[int]] {
	t.Helper()
	var out [2]register.Reg[core.Tagged[int]]
	for i := range out {
		switch s {
		case core.Certifiable:
			out[i] = register.NewAtomic(ports, core.Tagged[int]{}, nil)
		case core.FastPointer:
			out[i] = register.NewPointer(ports, core.Tagged[int]{})
		case core.FastSeqlock:
			sl, err := register.NewSeqlock(ports, core.Tagged[int]{})
			if err != nil {
				t.Fatal(err)
			}
			out[i] = sl
		default:
			t.Fatalf("unknown substrate %v", s)
		}
	}
	return out
}

// replaySchedule executes one exact interleaving of real accesses against
// a TwoWriter over the given substrate and exhaustively checks the
// recorded history. Writer i performs writes[i] writes of distinct values;
// reader j performs reads[j-1] reads.
func replaySchedule(t *testing.T, s core.Substrate, schedule []int, writes [2]int, reads []int) {
	t.Helper()
	g := newGate(schedule)
	regs := rawRegs(t, s, 1+len(reads))
	tw := core.New(len(reads), 0,
		core.WithRegisters[int](&gatedReg{regs[0], 0, g}, &gatedReg{regs[1], 1, g}),
		core.WithRecording[int]())

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := tw.Writer(i)
			for k := 0; k < writes[i]; k++ {
				w.Write(1 + i*100 + k)
			}
		}(i)
	}
	for j := 1; j <= len(reads); j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			r := tw.Reader(j)
			for k := 0; k < reads[j-1]; k++ {
				_ = r.Read()
			}
		}(j)
	}
	wg.Wait()

	h := tw.Recorder().History()
	res, err := atomicity.CheckHistory(&h, 0)
	if err != nil {
		t.Fatalf("substrate %v, schedule %v: %v", s, schedule, err)
	}
	if !res.Linearizable {
		t.Fatalf("substrate %v: NON-ATOMIC history under schedule %v", s, schedule)
	}
}

// TestSubstrateConformanceAllSchedules replays every interleaving of a
// two-writes-one-read configuration (210 schedules, cf.
// sched.CountSchedules) against each substrate's real memory operations.
func TestSubstrateConformanceAllSchedules(t *testing.T) {
	cfg := sched.Config{Writes: [2]int{1, 1}, Readers: []int{1}}
	var schedules [][]int
	if _, err := sched.Explore(cfg, sched.Faithful, func(r *sched.Result) error {
		schedules = append(schedules, append([]int(nil), r.Sched...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(schedules) != 210 {
		t.Fatalf("explored %d schedules, want 210", len(schedules))
	}
	for _, s := range allSubstrates {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			for _, schedule := range schedules {
				replaySchedule(t, s, schedule, [2]int{1, 1}, []int{1})
			}
		})
	}
}

// TestSubstrateConformanceLargerConfig widens the replay to two writes by
// writer 0 racing a write and a read (1260 schedules per substrate).
func TestSubstrateConformanceLargerConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("larger schedule space skipped in -short")
	}
	cfg := sched.Config{Writes: [2]int{2, 1}, Readers: []int{1}}
	var schedules [][]int
	if _, err := sched.Explore(cfg, sched.Faithful, func(r *sched.Result) error {
		schedules = append(schedules, append([]int(nil), r.Sched...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, s := range allSubstrates {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			for _, schedule := range schedules {
				replaySchedule(t, s, schedule, [2]int{2, 1}, []int{1})
			}
		})
	}
}

// TestSubstrateQuickWorkloads runs unscripted concurrent workloads on each
// substrate — real goroutines, real scheduler nondeterminism — and checks
// every recorded history exhaustively.
func TestSubstrateQuickWorkloads(t *testing.T) {
	const seeds = 12
	for _, s := range allSubstrates {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(seed))
				readers := 1 + rng.Intn(2)
				writes := 2 + rng.Intn(4)
				reads := 2 + rng.Intn(4)
				tw := core.New(readers, 0,
					core.WithSubstrate[int](s),
					core.WithRecording[int]())
				var wg sync.WaitGroup
				for i := 0; i < 2; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						w := tw.Writer(i)
						for k := 0; k < writes; k++ {
							w.Write(1 + i*100 + k)
						}
					}(i)
				}
				for j := 1; j <= readers; j++ {
					wg.Add(1)
					go func(j int) {
						defer wg.Done()
						r := tw.Reader(j)
						for k := 0; k < reads; k++ {
							_ = r.Read()
						}
					}(j)
				}
				wg.Wait()
				h := tw.Recorder().History()
				res, err := atomicity.CheckHistory(&h, 0)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !res.Linearizable {
					t.Fatalf("substrate %v, seed %d: non-atomic history", s, seed)
				}
			}
		})
	}
}

// TestUnrecordedFastPathAtomic checks the paths the benchmark runs. With
// recording on, every real access goes through readReg, so the tests above
// never reach the unrecorded fast paths or FastSeqlock's snapshot reads.
// Here the register records nothing. Each Writer.Write and Reader.Read is
// wrapped in a history.Recorder instead: invoke before the call, respond
// after it, both drawn from one sequencer. The recorded history then orders
// two operations only if they were ordered in real time, and it is checked
// exhaustively. Each goroutine yields before every operation, so a
// reader's operations interleave with the writers' instead of finishing in
// one time slice. FastPointer, which has no snapshots, is the reference.
func TestUnrecordedFastPathAtomic(t *testing.T) {
	const seeds = 200
	for _, s := range []core.Substrate{core.FastPointer, core.FastSeqlock} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(seed))
				readers := 1 + rng.Intn(2)
				writes := 1 + rng.Intn(4)
				reads := 2 + rng.Intn(5)
				tw := core.New(readers, 0, core.WithSubstrate[int](s))
				rec := history.NewRecorder[int](new(history.Sequencer))
				start := make(chan struct{})
				var wg sync.WaitGroup
				for i := 0; i < 2; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						w, ch := tw.Writer(i), history.ProcID(i)
						<-start
						for k := 0; k < writes; k++ {
							v := 1 + i*100 + k
							runtime.Gosched()
							id, _ := rec.InvokeWrite(ch, v)
							w.Write(v)
							rec.RespondWrite(ch, id)
						}
					}(i)
				}
				for j := 1; j <= readers; j++ {
					wg.Add(1)
					go func(j int) {
						defer wg.Done()
						r, ch := tw.Reader(j), core.ChanReader(j)
						<-start
						for k := 0; k < reads; k++ {
							runtime.Gosched()
							id, _ := rec.InvokeRead(ch)
							rec.RespondRead(ch, id, r.Read())
						}
					}(j)
				}
				close(start)
				wg.Wait()
				h := rec.Snapshot()
				res, err := atomicity.CheckHistory(&h, 0)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !res.Linearizable {
					t.Fatalf("substrate %v, seed %d: non-atomic history on the unrecorded path", s, seed)
				}
			}
		})
	}
}

// TestFastSubstrateSoak is the -race soak required of the fast substrates:
// two writers and four readers hammer an ungated, unrecorded TwoWriter.
// The race detector checks the memory discipline; the test checks the
// derived atomicity invariant that each writer's (increasing) values are
// never observed out of order by any single reader.
func TestFastSubstrateSoak(t *testing.T) {
	const (
		readers = 4
		writes  = 3000
		reads   = 3000
	)
	for _, s := range []core.Substrate{core.FastPointer, core.FastSeqlock} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			tw := core.New(readers, -1, core.WithSubstrate[int](s))
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					w := tw.Writer(i)
					for k := 0; k < writes; k++ {
						w.Write(i*1000000 + k)
					}
				}(i)
			}
			violations := make(chan string, readers)
			for j := 1; j <= readers; j++ {
				wg.Add(1)
				go func(j int) {
					defer wg.Done()
					r := tw.Reader(j)
					last := map[int]int{0: -1, 1: -1}
					for k := 0; k < reads; k++ {
						v := r.Read()
						if v < 0 {
							continue // initial value
						}
						writer, gen := v/1000000, v%1000000
						if gen < last[writer] {
							violations <- fmt.Sprintf("substrate %v: reader %d saw writer %d's value %d after %d", s, j, writer, gen, last[writer])
							return
						}
						last[writer] = gen
					}
				}(j)
			}
			wg.Wait()
			close(violations)
			for v := range violations {
				t.Fatal(v)
			}
		})
	}
}

// TestFastSubstrateWriterReaders soaks the combined writer/reader automata
// (the local-copy path, which skips stamp draws when unrecorded) on the
// fast substrates.
func TestFastSubstrateWriterReaders(t *testing.T) {
	const ops = 2000
	for _, s := range []core.Substrate{core.FastPointer, core.FastSeqlock} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			tw := core.New(0, -1, core.WithSubstrate[int](s))
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					wr := tw.WriterReader(i)
					last := map[int]int{0: -1, 1: -1}
					for k := 0; k < ops; k++ {
						if k%2 == 0 {
							wr.Write(i*1000000 + k)
							continue
						}
						v := wr.Read()
						if v < 0 {
							continue
						}
						writer, gen := v/1000000, v%1000000
						if gen < last[writer] {
							t.Errorf("substrate %v: writer-reader %d saw writer %d's value %d after %d", s, i, writer, gen, last[writer])
							return
						}
						last[writer] = gen
					}
				}(i)
			}
			wg.Wait()
		})
	}
}

// TestSeqlockSubstrateRejectsPointerValues pins the deliberate panic: a
// seqlock cannot carry pointer-bearing values, and asking for one is a
// configuration error, not a silent fallback.
func TestSeqlockSubstrateRejectsPointerValues(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FastSeqlock over strings did not panic")
		}
	}()
	core.New(1, "strings have pointers", core.WithSubstrate[string](core.FastSeqlock))
}

// TestFastSubstratesNotCertifiable pins the contract surfaced through the
// facade: fast substrates cannot stamp accesses.
func TestFastSubstratesNotCertifiable(t *testing.T) {
	for _, s := range []core.Substrate{core.FastPointer, core.FastSeqlock} {
		tw := core.New(1, 0, core.WithSubstrate[int](s), core.WithRecording[int]())
		if tw.Certifiable() {
			t.Fatalf("substrate %v claims to be certifiable", s)
		}
	}
	if tw := core.New(1, 0, core.WithRecording[int]()); !tw.Certifiable() {
		t.Fatal("default substrate lost certifiability")
	}
}

// TestSubstrateCountersOptIn verifies the fast substrates count accesses
// only when asked, and that counting observes the paper's access costs.
func TestSubstrateCountersOptIn(t *testing.T) {
	for _, s := range []core.Substrate{core.FastPointer, core.FastSeqlock} {
		tw := core.New(1, 0, core.WithSubstrate[int](s))
		if c := tw.Reg(0).(register.Counted).Counters(); c != nil {
			t.Fatalf("substrate %v counts without WithSubstrateCounters", s)
		}
		tw = core.New(1, 0, core.WithSubstrate[int](s), core.WithSubstrateCounters[int]())
		tw.Writer(0).Write(7)
		tw.Writer(1).Write(8)
		_ = tw.Reader(1).Read()
		c0 := tw.Reg(0).(register.Counted).Counters()
		c1 := tw.Reg(1).(register.Counted).Counters()
		if c0 == nil || c1 == nil {
			t.Fatalf("substrate %v: counters missing despite WithSubstrateCounters", s)
		}
		// Two writes: one real write + one protocol read each. One read:
		// three real reads.
		if got := c0.Writes() + c1.Writes(); got != 2 {
			t.Fatalf("substrate %v: %d real writes, want 2", s, got)
		}
		if got := c0.TotalReads() + c1.TotalReads(); got != 2+3 {
			t.Fatalf("substrate %v: %d real reads, want 5", s, got)
		}
	}
}
