package pipe

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// tally is a Sink that counts, per id, how often an item was announced
// to Dequeued and how often it was acked.
type tally struct {
	mu       sync.Mutex
	dequeued map[uint64]int
	acked    map[uint64]int
	replies  int // acks that carried a response
}

func newTally() *tally {
	return &tally{dequeued: map[uint64]int{}, acked: map[uint64]int{}}
}

func (s *tally) Dequeued(id uint64, _ bool) {
	s.mu.Lock()
	s.dequeued[id]++
	s.mu.Unlock()
}

func (s *tally) Ack(id uint64, resp *wire.Response) {
	s.mu.Lock()
	s.acked[id]++
	if resp != nil {
		s.replies++
	}
	s.mu.Unlock()
}

// stuckConn is one end of a net.Pipe whose peer never reads, so its
// first Write blocks until the connection is closed. It announces that
// Write, which tells a test the dispatcher is stuck in a flush.
type stuckConn struct {
	net.Conn
	once    sync.Once
	writing chan struct{}
}

func (c *stuckConn) Write(b []byte) (int, error) {
	c.once.Do(func() { close(c.writing) })
	return c.Conn.Write(b)
}

type testRec struct{ Rec }

// startStuck starts a Conn over a stuckConn, and a record to submit with.
func startStuck(t *testing.T, sink Sink) (*Conn, *stuckConn, *Rec) {
	t.Helper()
	end, peer := net.Pipe()
	t.Cleanup(func() { peer.Close() })
	sc := &stuckConn{Conn: end, writing: make(chan struct{})}
	var pool Pool[testRec, *testRec]
	return Start(sc, sink, nil, 0), sc, &pool.Get().Rec
}

func readItem(id uint64) Item {
	return Item{Request: wire.Request{ID: id, Op: "read"}}
}

// TestFullRingParksThenTeardownAcksAll pins the overload bound of the
// submission ring behind a dispatcher stuck flushing its first item:
// subDepth more items queue, the next submitter parks until its deadline
// and is refused rather than dropped, and after Fail, teardown passes
// every accepted item to Dequeued once and acks it once, with nil.
func TestFullRingParksThenTeardownAcksAll(t *testing.T) {
	sink := newTally()
	c, sc, r := startStuck(t, sink)

	if !c.Submit(r, readItem(0), time.Time{}) {
		t.Fatal("first submit refused")
	}
	<-sc.writing // the dispatcher has taken item 0 and is blocked flushing it
	for id := uint64(1); id <= subDepth; id++ {
		if !c.Submit(r, readItem(id), time.Now().Add(time.Second)) {
			t.Fatalf("submit %d refused before the ring was full", id)
		}
	}
	start := time.Now()
	const wait = 50 * time.Millisecond
	if c.Submit(r, readItem(subDepth+1), start.Add(wait)) {
		t.Fatal("submit to a full ring accepted")
	}
	if parked := time.Since(start); parked < wait {
		t.Fatalf("refused after %v, want a park until the %v deadline", parked, wait)
	}

	c.Fail(errors.New("test: give up"))
	<-c.Done()
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for id := uint64(0); id <= subDepth; id++ {
		if sink.dequeued[id] != 1 || sink.acked[id] != 1 {
			t.Errorf("item %d: dequeued %d times, acked %d times; want 1 and 1", id, sink.dequeued[id], sink.acked[id])
		}
	}
	if len(sink.dequeued) != subDepth+1 || len(sink.acked) != subDepth+1 {
		t.Errorf("sink saw %d dequeued and %d acked ids, want %d of each (the refused item must not reach it)",
			len(sink.dequeued), len(sink.acked), subDepth+1)
	}
	if sink.replies != 0 {
		t.Errorf("%d acks carried a response; nothing was answered", sink.replies)
	}
}

// TestSubmitAfterFailRefused pins that a failed connection refuses an
// item at once and queues nothing: the caller acks a refused item
// itself, so a queued one would be acked twice.
func TestSubmitAfterFailRefused(t *testing.T) {
	sink := newTally()
	c, _, r := startStuck(t, sink)
	c.Fail(errors.New("test: down"))
	if c.Submit(r, readItem(7), time.Time{}) {
		t.Fatal("submit after Fail accepted")
	}
	<-c.Done()
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.dequeued) != 0 || len(sink.acked) != 0 {
		t.Fatalf("refused item reached the sink: dequeued %v, acked %v", sink.dequeued, sink.acked)
	}
}
