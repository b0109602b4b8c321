package netreg_test

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netreg"
	"repro/internal/wire"
)

// BenchmarkServePipelined measures the server's peak on its pipelined
// binary path: raw wire frames over 2 connections, each keeping up to
// 256 requests in flight, 90% reads, closed loop. No client library
// sits in the way, so the figure is what the server sustains when the
// load costs almost nothing to generate. It reports ops/s; CI fails it
// below 1 053 000 ops/s, 3× the single-connection depth-64 figure (351K
// ops/s).
func BenchmarkServePipelined(b *testing.B) {
	const conns, depth = 2, 256
	srv, err := netreg.NewServer("127.0.0.1:0", "x", 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cs := make([]net.Conn, conns)
	for i := range cs {
		if cs[i], err = net.Dial("tcp", srv.Addr()); err != nil {
			b.Fatal(err)
		}
		defer cs[i].Close()
	}

	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, 2*conns)
	for i, conn := range cs {
		n := uint64(b.N / conns)
		if i == 0 {
			n += uint64(b.N % conns)
		}
		var done atomic.Uint64
		wake := make(chan struct{}, 1)
		wg.Add(2)
		go func() {
			defer wg.Done()
			err := drivePipelined(conn, n, depth, &done, wake)
			if err != nil {
				conn.Close() // unblock the reaper
			}
			errs <- err
		}()
		go func() {
			defer wg.Done()
			errs <- reapPipelined(conn, n, &done, wake)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	close(errs)
	for err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "ops/s")
}

// drivePipelined sends n requests on conn — every tenth a write — with
// at most depth unanswered. It tops the window up and flushes the burst
// as one syscall, then waits for half the window to drain before the
// next burst.
func drivePipelined(conn net.Conn, n, depth uint64, done *atomic.Uint64, wake <-chan struct{}) error {
	bw := bufio.NewWriterSize(conn, 64<<10)
	wr := wire.NewWriter(bw)
	read := wire.Request{Op: "read"}
	write := wire.Request{Op: "write", Val: []byte(`"y"`)}
	for sent := uint64(0); sent < n; {
		for ; sent < n && sent-done.Load() < depth; sent++ {
			req := &read
			if sent%10 == 9 {
				req = &write
			}
			req.ID = sent
			if err := wr.WriteRequest(req); err != nil {
				return err
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		for sent < n && sent-done.Load() > depth/2 {
			if _, ok := <-wake; !ok {
				return nil // the reaper failed; it reports why
			}
		}
	}
	return nil
}

// reapPipelined reads n responses off conn, failing on any error reply,
// and rings wake after each one.
func reapPipelined(conn net.Conn, n uint64, done *atomic.Uint64, wake chan<- struct{}) error {
	defer close(wake)
	rd := wire.NewReader(bufio.NewReaderSize(conn, 64<<10))
	var resp wire.Response
	for i := uint64(0); i < n; i++ {
		if err := rd.ReadResponse(&resp); err != nil {
			return err
		}
		if resp.Err != "" {
			return fmt.Errorf("request %d: server error: %s", resp.ID, resp.Err)
		}
		done.Add(1)
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	return nil
}
