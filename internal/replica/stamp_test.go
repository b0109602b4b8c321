package replica_test

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/linz"
	"repro/internal/obs"
	"repro/internal/replica"
)

// stamped is one completed operation's (ts, wid) and the JSON value it
// wrote or read.
type stamped struct {
	ts  int64
	wid uint32
	val string
}

// stampLog collects completed operations from many goroutines.
type stampLog struct {
	mu            sync.Mutex
	writes, reads []stamped
}

func (l *stampLog) add(write bool, ts int64, wid uint32, val []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := stamped{ts, wid, string(val)}
	if write {
		l.writes = append(l.writes, s)
	} else {
		l.reads = append(l.reads, s)
	}
}

// oneValuePerStamp is the "one value per (ts, wid)" oracle: no two writes
// of distinct values may return the same stamp, and every read must
// return the value written under the stamp it carries — (0, 0) carries
// initial. It summarizes every breach in one error.
func (l *stampLog) oneValuePerStamp(initial string) error {
	type key struct {
		ts  int64
		wid uint32
	}
	byStamp := map[key]string{{0, 0}: initial}
	var shared, wrong int
	var first string
	for _, w := range l.writes {
		k := key{w.ts, w.wid}
		if v, dup := byStamp[k]; dup {
			if shared == 0 {
				first = fmt.Sprintf("writes of %s and %s both returned (%d,%d)", v, w.val, w.ts, w.wid)
			}
			shared++
			continue
		}
		byStamp[k] = w.val
	}
	for _, r := range l.reads {
		if v, ok := byStamp[key{r.ts, r.wid}]; !ok || v != r.val {
			if shared+wrong == 0 {
				first = fmt.Sprintf("read %s under (%d,%d), whose write (if any) wrote %q", r.val, r.ts, r.wid, v)
			}
			wrong++
		}
	}
	if shared+wrong == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d writes reused a stamp, %d of %d reads disagree with their stamp's write; first: %s",
		shared, len(l.writes), wrong, len(l.reads), first)
}

// TestConcurrentWritesDistinctStamps is the stamp-collision regression:
// 8 goroutines write distinct values through ONE client. Each write's
// query can see the same maximum as its neighbours', so without the
// client's stamp floor they install different values under one
// (ts, wid) — which no linearization explains.
func TestConcurrentWritesDistinctStamps(t *testing.T) {
	const (
		goroutines = 8
		writesEach = 500
	)
	for _, mode := range []replica.Mode{replica.ModeABD, replica.ModeFast} {
		t.Run(mode.String(), func(t *testing.T) {
			c := startCluster(t, 3, "v0")
			q, err := replica.Dial(c.addrs, replica.Options{Mode: mode, WriterID: 1, Timeout: 2 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()

			var log stampLog
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for k := 0; k < writesEach; k++ {
						v, _ := json.Marshal(fmt.Sprintf("g%d-%d", g, k))
						ts, wid, err := q.WriteStamped(v)
						if err != nil {
							t.Errorf("goroutine %d write %d: %v", g, k, err)
							return
						}
						log.add(true, ts, wid, v)
					}
				}(g)
			}
			wg.Wait()
			if err := log.oneValuePerStamp(`"v0"`); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentWritersCertify runs concurrent distinct-value writers and
// a reader on ONE client in each mode, on clean links and on links where
// every socket operation pays a delay (so the writes' queries overlap
// wide), and certifies the merged client and replica journals atomic
// online, on top of the one-value-per-stamp oracle.
func TestConcurrentWritersCertify(t *testing.T) {
	const (
		m          = 3
		writers    = 4
		writesEach = 20
		reads      = 40
	)
	for _, mode := range []replica.Mode{replica.ModeABD, replica.ModeFast} {
		for _, link := range []struct {
			name  string
			delay time.Duration
		}{{"clean", 0}, {"delayed", 2 * time.Millisecond}} {
			t.Run(mode.String()+"/"+link.name, func(t *testing.T) {
				c := startCluster(t, m, "v0")
				initJSON, _ := json.Marshal("v0")

				qj := obs.NewJournal()
				parts := []linz.JournalPart{{J: qj, Prefix: "q/"}}
				for i, j := range c.journals {
					parts = append(parts, linz.JournalPart{J: j, Prefix: fmt.Sprintf("r%d/", i)})
				}
				ol := linz.NewOnlineParts(parts, linz.OnlineOptions{Interval: 10 * time.Millisecond})
				for _, p := range parts {
					ol.SetInit(p.Prefix, obs.HashVal(initJSON))
				}
				ol.Start()

				opts := replica.Options{Mode: mode, WriterID: 1, Journal: qj, Timeout: 2 * time.Second}
				if link.delay > 0 {
					plan := &faultnet.Plan{Seed: 20260808, Delay: link.delay, DelayProb: 1}
					opts.Dialer = plan.Dialer()
				}
				q, err := replica.Dial(c.addrs, opts)
				if err != nil {
					t.Fatal(err)
				}

				var log stampLog
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for k := 0; k < writesEach; k++ {
							v, _ := json.Marshal(fmt.Sprintf("w%d-%d", w, k))
							ts, wid, err := q.WriteStamped(v)
							if err != nil {
								t.Errorf("writer %d write %d: %v", w, k, err)
								return
							}
							log.add(true, ts, wid, v)
						}
					}(w)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < reads; k++ {
						v, ts, wid, err := q.ReadStamped()
						if err != nil {
							t.Errorf("read %d: %v", k, err)
							return
						}
						log.add(false, ts, wid, v)
					}
				}()
				wg.Wait()
				if err := log.oneValuePerStamp(string(initJSON)); err != nil {
					t.Error(err)
				}

				q.Close()
				for _, srv := range c.servers {
					srv.Close()
				}
				ol.Stop()
				if fl := ol.FirstFailure(); fl != nil {
					t.Fatalf("merged journals failed certification: %+v", fl)
				}
				if ol.Windows() == 0 {
					t.Fatal("checker never checked a window")
				}
				if qj.Drops() != 0 {
					t.Errorf("client journal dropped %d records", qj.Drops())
				}
				if got, want := ol.PartOps("q/"), int64(writers*writesEach+reads); got != want {
					t.Errorf("client journal drained %d logical ops, want exactly %d", got, want)
				}
			})
		}
	}
}
