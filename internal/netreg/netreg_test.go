package netreg_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/netreg"
	"repro/internal/obs"
	"repro/internal/proof"
	"repro/internal/wire"
)

func TestRoundTrip(t *testing.T) {
	srv, err := netreg.NewServer("127.0.0.1:0", "initial", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := netreg.Dial[string](srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	v, s1, err := c.ReadErr(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != "initial" {
		t.Fatalf("initial read = %q", v)
	}
	s2, err := c.WriteErr("hello")
	if err != nil {
		t.Fatal(err)
	}
	v, s3, err := c.ReadErr(1)
	if err != nil {
		t.Fatal(err)
	}
	if v != "hello" {
		t.Fatalf("read after write = %q", v)
	}
	if !(s1 < s2 && s2 < s3) {
		t.Fatalf("stamps not increasing: %d %d %d", s1, s2, s3)
	}
}

func TestStructValues(t *testing.T) {
	type point struct {
		X, Y int
		Name string
	}
	srv, err := netreg.NewServer("127.0.0.1:0", point{1, 2, "origin-ish"}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := netreg.Dial[point](srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, _, err := c.ReadErr(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != (point{1, 2, "origin-ish"}) {
		t.Fatalf("struct roundtrip = %+v", got)
	}
	if _, err := c.WriteErr(point{3, 4, "moved"}); err != nil {
		t.Fatal(err)
	}
	got, _, err = c.ReadErr(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != (point{3, 4, "moved"}) {
		t.Fatalf("struct after write = %+v", got)
	}
}

func TestServerErrors(t *testing.T) {
	srv, err := netreg.NewServer("127.0.0.1:0", 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := netreg.Dial[int](srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.ReadErr(5); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range port: %v", err)
	}
	// The connection survives a server-side error.
	if _, _, err := c.ReadErr(0); err != nil {
		t.Fatalf("connection did not survive: %v", err)
	}
}

// TestDoRefusesUnknownOp checks that a misspelled op never reaches the
// server as some other op: Do fails at once with wire.ErrUnknownOp, no
// frame is sent, no write is applied, and the same client keeps working.
func TestDoRefusesUnknownOp(t *testing.T) {
	srv, err := netreg.NewServer("127.0.0.1:0", "v0", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ws := obs.NewWire()
	c, err := netreg.Dial[string](srv.Addr(), netreg.WithTimeout(5*time.Second), netreg.WithWireStats(ws))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Do(&wire.Request{Op: "wrtie", Val: json.RawMessage(`"typo"`)})
	if !errors.Is(err, wire.ErrUnknownOp) || !strings.Contains(err.Error(), `"wrtie"`) {
		t.Fatalf("Do with a misspelled op: err = %v, want wire.ErrUnknownOp naming the op", err)
	}
	if _, out := ws.Frames(); out != 0 {
		t.Fatalf("%d frames sent for a refused op, want 0", out)
	}
	if n := srv.Store().Counters().Writes(); n != 0 {
		t.Fatalf("server applied %d writes, want 0", n)
	}
	v, _, err := c.ReadErr(0)
	if err != nil || v != "v0" {
		t.Fatalf("read after the refused op = %q, %v; want \"v0\"", v, err)
	}
}

// TestServerDropsForeignBytes opens raw connections that send what a
// binary server cannot frame — a JSON line, a length prefix over
// wire.MaxFrame, a frame with an unknown kind byte — and checks the
// server closes each without a reply and without touching the register,
// while a normal client on its own connection keeps working throughout.
func TestServerDropsForeignBytes(t *testing.T) {
	srv, err := netreg.NewServer("127.0.0.1:0", "v0", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	good, err := netreg.Dial[string](srv.Addr(), netreg.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()

	// A well-formed read frame with its kind byte (the first payload
	// byte) set to 0x05, a kind no request has.
	var frame bytes.Buffer
	w := wire.NewWriter(bufio.NewWriter(&frame))
	if err := w.WriteRequest(&wire.Request{ID: 1, Op: "read"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	unknownKind := frame.Bytes()
	unknownKind[4] = 0x05
	over := wire.MaxFrame + 1

	ctr := srv.Store().Counters()
	for _, tc := range []struct {
		name string
		send []byte
	}{
		{"json", []byte(`{"op":"write","val":"\"evil\""}` + "\n")},
		{"oversized", []byte{byte(over >> 24), byte(over >> 16), byte(over >> 8), byte(over), 0x01}},
		{"unknown-kind", unknownKind},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reads, writes := ctr.TotalReads(), ctr.Writes()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.send); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := conn.Read(make([]byte, 64))
			if n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("after foreign bytes the server replied %d bytes (err %v); want the connection closed with no reply", n, err)
			}
			if r, w := ctr.TotalReads(), ctr.Writes(); r != reads || w != writes {
				t.Fatalf("foreign bytes moved the register: reads %d -> %d, writes %d -> %d", reads, r, writes, w)
			}

			if _, err := good.WriteErr(tc.name); err != nil {
				t.Fatalf("normal client write: %v", err)
			}
			if v, _, err := good.ReadErr(0); err != nil || v != tc.name {
				t.Fatalf("normal client read = %q, %v; want %q", v, err, tc.name)
			}
		})
	}
}

func TestClientClosed(t *testing.T) {
	srv, err := netreg.NewServer("127.0.0.1:0", 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := netreg.Dial[int](srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal("Close is not idempotent")
	}
	if _, _, err := c.ReadErr(0); err == nil {
		t.Fatal("read on closed client succeeded")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := netreg.NewServer("127.0.0.1:0", 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("second Close errored")
	}
}

// TestBloomOverNetworkCertified is the paper's opening scenario end to
// end: two register servers (each node's "file system"), remote clients,
// the two-writer protocol on top, real goroutine concurrency — and the
// run is certified by the Section 7 construction, because the servers
// share a sequencer and stamp every access inside its critical section.
func TestBloomOverNetworkCertified(t *testing.T) {
	const readers = 2
	seq := new(history.Sequencer)
	type val = core.Tagged[string]
	init := val{Val: "v0"}

	srv0, err := netreg.NewServer("127.0.0.1:0", init, readers+1, seq)
	if err != nil {
		t.Fatal(err)
	}
	defer srv0.Close()
	srv1, err := netreg.NewServer("127.0.0.1:0", init, readers+1, seq)
	if err != nil {
		t.Fatal(err)
	}
	defer srv1.Close()

	r0, err := netreg.NewReg[val](srv0.Addr(), readers+1)
	if err != nil {
		t.Fatal(err)
	}
	defer r0.Close()
	r1, err := netreg.NewReg[val](srv1.Addr(), readers+1)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()

	tw := core.New(readers, "v0",
		core.WithRegisters[string](r0, r1),
		core.WithSequencer[string](seq),
		core.WithRecording[string]())
	if !tw.Certifiable() {
		t.Fatal("network registers should be certifiable")
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := tw.Writer(i)
			for k := 0; k < 30; k++ {
				w.Write(fmt.Sprintf("w%d-%d", i, k))
			}
		}(i)
	}
	for j := 1; j <= readers; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			r := tw.Reader(j)
			for k := 0; k < 30; k++ {
				_ = r.Read()
			}
		}(j)
	}
	wg.Wait()

	lin, err := proof.Certify(tw.Recorder().Trace("v0"))
	if err != nil {
		t.Fatalf("network-backed run failed certification: %v", err)
	}
	if got := lin.Report.PotentWrites + lin.Report.ImpotentWrites; got != 60 {
		t.Fatalf("classified %d writes, want 60", got)
	}
}

func TestAwkwardValues(t *testing.T) {
	srv, err := netreg.NewServer("127.0.0.1:0", "", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := netreg.Dial[string](srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Newlines, quotes and unicode must survive the line-oriented
	// transport (JSON escapes them).
	for _, v := range []string{"", "line1\nline2", `quo"ted`, "ünïcødé", "\x00nul"} {
		if _, err := c.WriteErr(v); err != nil {
			t.Fatalf("write %q: %v", v, err)
		}
		got, _, err := c.ReadErr(0)
		if err != nil {
			t.Fatalf("read after %q: %v", v, err)
		}
		if got != v {
			t.Fatalf("roundtrip %q → %q", v, got)
		}
	}
}

func TestManyConcurrentClients(t *testing.T) {
	srv, err := netreg.NewServer("127.0.0.1:0", 0, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c, err := netreg.Dial[int](srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for k := 0; k < 100; k++ {
				if _, _, err := c.ReadErr(p); err != nil {
					errs <- err
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestRegAdapterPanicsOnDeadServer(t *testing.T) {
	srv, err := netreg.NewServer("127.0.0.1:0", 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := netreg.NewReg[int](srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	srv.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("read against a dead server did not panic")
		}
	}()
	r.Read(0)
}
