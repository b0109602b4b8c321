package netreg

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	mathrand "math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/register"
	"repro/internal/wire"
)

var _ register.Stamped[int] = (*Reg[int])(nil)

// ErrTimeout wraps round trips that exceeded the client's deadline (see
// WithTimeout). Test with errors.Is.
var ErrTimeout = errors.New("netreg: round trip timed out")

// ErrUnavailable marks round trips refused without touching the network
// because the client's circuit breaker is open (see WithBreaker): the
// server has failed repeatedly and the client degrades to fast-fail until
// the cooldown elapses. Test with errors.Is.
var ErrUnavailable = errors.New("netreg: server unavailable (circuit open)")

// DialOption configures a Client.
type DialOption func(*dialConfig)

type dialConfig struct {
	timeout    time.Duration
	rpc        *obs.RPC
	wire       *obs.Wire
	regName    string
	dial       func(addr string) (net.Conn, error)
	retry      RetryPolicy
	breakAfter int
	cooldown   time.Duration
	jitterSeed int64
	seeded     bool
}

// WithTimeout bounds every round-trip attempt: the caller waits at most d
// for its response before abandoning the connection, so a stalled or dead
// server surfaces as a counted ErrTimeout instead of a hung client. The
// failed connection is discarded; the next attempt (a retry, or the next
// round trip) reconnects.
func WithTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.timeout = d }
}

// WithRPCStats attaches a round-trip tally: every exchange records its
// operation kind, latency, and outcome (ok / timeout / error), and the
// recovery machinery records retries, reconnects, and breaker events. One
// tally may be shared across the clients of a whole Reg.
func WithRPCStats(r *obs.RPC) DialOption {
	return func(c *dialConfig) { c.rpc = r }
}

// WithWireStats attaches a transport tally: frames and bytes in each
// direction, and the in-flight pipeline gauge. One tally may be shared
// across clients.
func WithWireStats(w *obs.Wire) DialOption {
	return func(c *dialConfig) { c.wire = w }
}

// WithRegister aims the client at a named register instance on a
// multi-register server (see AddRegister). The default is the default
// register, "".
func WithRegister(name string) DialOption {
	return func(c *dialConfig) { c.regName = name }
}

// WithDialer substitutes the function used for every connect and
// reconnect (the default dials TCP). This is the hook by which
// faultnet-style wrappers inject faults into the client's own link.
func WithDialer(dial func(addr string) (net.Conn, error)) DialOption {
	return func(c *dialConfig) { c.dial = dial }
}

// RetryPolicy bounds the client's in-round-trip retries. A transport
// failure (not a server error reply) discards the connection; with
// retries left, the client backs off, reconnects, and re-sends the same
// request — same sequence number, so the server applies a retried write
// at most once.
type RetryPolicy struct {
	// Attempts is the number of retries after the first attempt
	// (0 = fail on the first transport error).
	Attempts int
	// Backoff is the sleep before the first retry; it doubles per retry.
	// Zero means DefaultBackoff.
	Backoff time.Duration
	// MaxBackoff caps the doubling. Zero means DefaultMaxBackoff.
	MaxBackoff time.Duration
}

// Default backoff bounds used when a RetryPolicy leaves them zero.
const (
	DefaultBackoff    = 2 * time.Millisecond
	DefaultMaxBackoff = 250 * time.Millisecond
)

// WithRetry enables reconnect-and-resend on transport failure, with
// capped exponential backoff and jitter (each sleep is uniform in
// [d/2, d] for the current cap d).
func WithRetry(p RetryPolicy) DialOption {
	return func(c *dialConfig) { c.retry = p }
}

// WithJitterSeed seeds the client's private backoff-jitter PRNG, making
// retry timing a pure function of the seed and the sequence of sleeps —
// which is what lets a run under a seeded faultnet plan replay its
// backoff schedule exactly. Unseeded clients draw a random seed at Dial.
//
// This option exists because the jitter originally came from the global
// math/rand source: a process-wide mutex on the retry path (every
// backing-off client serialized through it), and no way to reproduce a
// faulty run's timing no matter how carefully the fault plan was seeded.
func WithJitterSeed(seed int64) DialOption {
	return func(c *dialConfig) {
		c.jitterSeed = seed
		c.seeded = true
	}
}

// WithBreaker arms a circuit breaker: after failures consecutive failed
// round trips (each already past its retry budget), the client fast-fails
// every round trip with ErrUnavailable for the cooldown duration, then
// lets one through (half-open); success closes the breaker, failure
// re-opens it.
func WithBreaker(failures int, cooldown time.Duration) DialOption {
	return func(c *dialConfig) {
		c.breakAfter = failures
		c.cooldown = cooldown
	}
}

// Client accesses a remote register over one pipelined connection, an
// internal/pipe Conn: the transport the replica quorum engine runs on
// too. Any number of goroutines may call ReadErr/WriteErr concurrently.
// Each round trip takes a pooled record, submits one request to the
// connection's dispatcher (which batches concurrent bursts into one
// flush), and sleeps on the record's doorbell until the reader lands the
// reply there. A single sequential caller gets serial round trips; N
// concurrent callers get a pipeline N deep over the same connection.
//
// The client keeps its own reconnect policy: it dials on demand, one dial
// at a time, so the circuit breaker decides every dial. A round trip
// whose deadline passes fails the whole connection.
//
// Transport errors are returned from ReadErr/WriteErr after the retry
// budget (WithRetry) is exhausted; a broken connection is discarded —
// failing every request in flight on it over to their own retries — and
// the next attempt reconnects, so one failure is never sticky. Every
// request carries the client's id and a per-request sequence number, and
// the server deduplicates writes on them: a write whose response was lost
// and which is re-sent is applied AT MOST ONCE, which is what keeps
// retried runs certifiable (a replayed write must never become two
// *-actions). The Reg adapter (for plugging into core.WithRegisters,
// whose interface is error-free shared memory) panics only when even this
// machinery gives up.
type Client[V any] struct {
	addr       string
	dial       func(addr string) (net.Conn, error)
	timeout    time.Duration
	rpc        *obs.RPC
	ws         *obs.Wire
	regName    string
	retry      RetryPolicy
	breakAfter int
	cooldown   time.Duration
	id         string

	// seq issues request identities: one per logical round trip, reused
	// across its retries.
	seq atomic.Uint64

	// recs pools the round-trip records replies land in.
	recs recPool

	// brkMu guards the breaker state; round trips from many goroutines
	// share it. halfOpen is true while the single post-cooldown probe is
	// in flight: the first caller past an expired cooldown claims the
	// probe slot, and everyone else keeps fast-failing until the probe
	// resolves (success closes the breaker, failure re-opens it for a
	// fresh cooldown).
	brkMu       sync.Mutex
	consecFails int
	openUntil   time.Time
	halfOpen    bool

	// jitterMu guards rng, the client-private backoff-jitter source (see
	// WithJitterSeed). Contention on it is bounded by the client's own
	// concurrent retries — never by other clients, unlike the global
	// math/rand source it replaced.
	jitterMu sync.Mutex
	rng      *mathrand.Rand

	// connMu guards cur and closed only and is never held across I/O, so
	// Close cannot block behind an in-flight exchange. dialMu serializes
	// actual dials so a burst of retrying callers shares one reconnect
	// instead of racing N dials.
	connMu        sync.Mutex
	cur           *pipe.Conn
	closed        bool
	everConnected bool
	dialMu        sync.Mutex
}

// newClientID returns a process-unique, collision-resistant id; the
// server's write dedup tables are keyed by it.
func newClientID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("netreg: reading client id entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Dial connects to a register server.
func Dial[V any](addr string, opts ...DialOption) (*Client[V], error) {
	cfg := dialConfig{
		dial: func(a string) (net.Conn, error) { return net.Dial("tcp", a) },
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.retry.Backoff <= 0 {
		cfg.retry.Backoff = DefaultBackoff
	}
	if cfg.retry.MaxBackoff <= 0 {
		cfg.retry.MaxBackoff = DefaultMaxBackoff
	}
	seed := cfg.jitterSeed
	if !cfg.seeded {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			panic(fmt.Sprintf("netreg: reading jitter seed entropy: %v", err))
		}
		seed = int64(binary.LittleEndian.Uint64(b[:]))
	}
	c := &Client[V]{
		addr:       addr,
		dial:       cfg.dial,
		timeout:    cfg.timeout,
		rpc:        cfg.rpc,
		ws:         cfg.wire,
		regName:    cfg.regName,
		retry:      cfg.retry,
		breakAfter: cfg.breakAfter,
		cooldown:   cfg.cooldown,
		id:         newClientID(),
		rng:        mathrand.New(mathrand.NewSource(seed)),
	}
	if _, err := c.getConn(); err != nil {
		return nil, fmt.Errorf("netreg: dial %s: %w", addr, err)
	}
	return c, nil
}

// Close releases the connection. It never waits on an in-flight round
// trip: failing the connection is what interrupts one.
func (c *Client[V]) Close() error {
	c.connMu.Lock()
	if c.closed {
		c.connMu.Unlock()
		return nil
	}
	c.closed = true
	cc := c.cur
	c.cur = nil
	c.connMu.Unlock()
	if cc != nil {
		cc.Fail(ErrClosed)
	}
	return nil
}

// isClosed reports whether Close has been called.
func (c *Client[V]) isClosed() bool {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.closed
}

// getConn returns the live connection, dialing one if none is held.
// Re-dials after the first successful connect are counted as reconnects.
// Concurrent callers needing a dial serialize on dialMu and share its
// result.
func (c *Client[V]) getConn() (*pipe.Conn, error) {
	c.connMu.Lock()
	if c.closed {
		c.connMu.Unlock()
		return nil, ErrClosed
	}
	if cc := c.cur; cc != nil {
		c.connMu.Unlock()
		return cc, nil
	}
	c.connMu.Unlock()

	c.dialMu.Lock()
	defer c.dialMu.Unlock()
	// Someone else may have dialed while this caller waited its turn.
	c.connMu.Lock()
	if c.closed {
		c.connMu.Unlock()
		return nil, ErrClosed
	}
	if cc := c.cur; cc != nil {
		c.connMu.Unlock()
		return cc, nil
	}
	reconnect := c.everConnected
	c.connMu.Unlock()

	start := time.Now()
	conn, err := c.dial(c.addr)
	if reconnect {
		c.rpc.RecordReconnect(time.Since(start), err == nil)
	}
	if err != nil {
		return nil, fmt.Errorf("netreg: connect %s: %w", c.addr, err)
	}
	// No read watchdog: every attempt waits under its own deadline and
	// fails the connection when that passes (none under WithTimeout(0)).
	cc := pipe.Start(StatConn(conn, c.ws), &c.recs, c.ws, 0)

	c.connMu.Lock()
	if c.closed {
		c.connMu.Unlock()
		cc.Fail(ErrClosed)
		return nil, ErrClosed
	}
	c.cur = cc
	c.everConnected = true
	c.connMu.Unlock()
	return cc, nil
}

// dropConn discards a failed connection (its stream may hold a partial
// frame; resynchronizing is impossible, so reconnect instead). Only the
// given connection is dropped: a racing caller that already dialed a
// replacement keeps it.
func (c *Client[V]) dropConn(cc *pipe.Conn, err error) {
	c.connMu.Lock()
	if c.cur == cc {
		c.cur = nil
	}
	c.connMu.Unlock()
	cc.Fail(err)
}

// jitterBackoff computes the retry sleep for the given attempt (1-based):
// exponential in the attempt number, capped by the policy, with uniform
// jitter in [d/2, d] drawn from rnd so retrying clients don't re-collide
// in lockstep. Pure in (policy, attempt, rnd draws) — the determinism
// tests replay it against a known-seed source.
func jitterBackoff(p RetryPolicy, attempt int, rnd func(n int64) int64) time.Duration {
	d := p.Backoff << uint(attempt-1)
	if d <= 0 || d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	half := int64(d / 2)
	if half > 0 {
		d = time.Duration(half + rnd(half+1))
	}
	return d
}

// randInt63n draws from the client's private jitter PRNG.
func (c *Client[V]) randInt63n(n int64) int64 {
	c.jitterMu.Lock()
	defer c.jitterMu.Unlock()
	return c.rng.Int63n(n)
}

// backoffSleep sleeps the retry's backoff (see jitterBackoff). The jitter
// comes from the client's own seeded PRNG, not the global math/rand
// source: no cross-client mutex on the retry path, and runs under seeded
// fault plans replay their backoff schedule (see WithJitterSeed).
func (c *Client[V]) backoffSleep(attempt int) {
	time.Sleep(jitterBackoff(c.retry, attempt, c.randInt63n))
}

// breakerCheck fast-fails while the breaker is open; after the cooldown
// expires exactly ONE caller is admitted as the half-open probe and
// everyone else keeps fast-failing until it resolves. Admitting every
// caller racing the cooldown boundary — the bug this replaced — turned
// recovery into a stampede: with m replicas' breakers expiring together,
// a still-dead server absorbed whole bursts of doomed round trips (each
// burning its full retry budget) before the breaker could re-open.
func (c *Client[V]) breakerCheck() error {
	if c.breakAfter <= 0 {
		return nil
	}
	c.brkMu.Lock()
	defer c.brkMu.Unlock()
	if c.openUntil.IsZero() {
		return nil
	}
	if time.Now().Before(c.openUntil) {
		c.rpc.RecordBreakerFastFail()
		return fmt.Errorf("%w; retry after %s", ErrUnavailable, time.Until(c.openUntil).Round(time.Millisecond))
	}
	if c.halfOpen {
		// The cooldown expired but another caller already claimed the
		// probe slot; fail fast until the probe's verdict is in.
		c.rpc.RecordBreakerFastFail()
		return fmt.Errorf("%w; half-open probe in flight", ErrUnavailable)
	}
	c.halfOpen = true
	return nil
}

// breakerOK records a healthy exchange: the breaker sees health and a
// half-open probe's success closes it.
func (c *Client[V]) breakerOK() {
	c.brkMu.Lock()
	c.consecFails = 0
	c.openUntil = time.Time{}
	c.halfOpen = false
	c.brkMu.Unlock()
}

// breakerFail records a round trip that exhausted its retry budget,
// opening the breaker when the threshold is reached. A failed half-open
// probe re-opens immediately for a fresh cooldown — the probe already
// proved the server is still down; counting back up to the threshold
// would admit breakAfter-1 more doomed round trips per cooldown.
func (c *Client[V]) breakerFail() {
	c.brkMu.Lock()
	c.consecFails++
	if c.breakAfter > 0 && (c.halfOpen || c.consecFails >= c.breakAfter) {
		c.openUntil = time.Now().Add(c.cooldown)
		c.halfOpen = false
		c.rpc.RecordBreakerOpen()
	}
	c.brkMu.Unlock()
}

// roundTrip performs one logical access: assign the request its identity
// once, then attempt (and re-attempt, per the retry policy) to exchange
// it. A retried request re-sends the same sequence number, and the server
// applies a retried write at most once.
func (c *Client[V]) roundTrip(req *wire.Request) (wire.Response, error) {
	op := obs.RPCWrite
	switch req.Op {
	case "read", "qread":
		op = obs.RPCRead
	}
	if c.isClosed() {
		return wire.Response{}, ErrClosed
	}
	if err := c.breakerCheck(); err != nil {
		return wire.Response{}, err
	}

	// One request identity for all attempts.
	req.Seq, req.Client = c.seq.Add(1), c.id
	if req.Reg == "" {
		req.Reg = c.regName
	}
	// Every attempt sends the record's own copy of the value: the caller
	// may reuse its buffer once Do returns, while a timed-out attempt's
	// frame can still be on its way to the socket.
	r := c.recs.Get()
	defer c.recs.Retire(&r.Rec)
	r.wval = append(r.wval[:0], req.Val...)

	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.rpc.RecordRetry(op)
			c.backoffSleep(attempt)
		}
		cc, err := c.getConn()
		if err != nil {
			lastErr = err
		} else {
			start := time.Now()
			resp, err := c.do(cc, r, req)
			if c.rpc != nil {
				outcome := obs.RPCOK
				switch {
				case isTimeout(err):
					outcome = obs.RPCTimeout
				case err != nil:
					outcome = obs.RPCError
				}
				c.rpc.Record(op, time.Since(start), outcome)
			}
			if err == nil {
				// Success, or a well-formed server error reply: the
				// connection is in sync and the breaker sees health.
				c.breakerOK()
				if resp.Err != "" {
					return resp, fmt.Errorf("netreg: server: %s", resp.Err)
				}
				return resp, nil
			}
			lastErr = err
			c.dropConn(cc, err)
		}
		if c.isClosed() {
			return wire.Response{}, ErrClosed
		}
		if attempt >= c.retry.Attempts {
			break
		}
	}

	c.breakerFail()
	return wire.Response{}, lastErr
}

// do performs one attempt over cc: submit the request under a fresh tag
// of the op's record and sleep on the record's doorbell, bounded by the
// client's timeout, so a stalled server surfaces as ErrTimeout rather
// than a hung caller. The caller fails the connection on any error.
func (c *Client[V]) do(cc *pipe.Conn, r *rec, req *wire.Request) (wire.Response, error) {
	it := pipe.Item{Request: *req}
	r.Mu.Lock()
	it.ID, it.Val = r.Retag(), r.wval
	r.Mu.Unlock()
	var deadline time.Time
	if c.timeout > 0 {
		deadline = time.Now().Add(c.timeout)
	}
	c.ws.OpStart()
	defer c.ws.OpDone()
	if !cc.Submit(&r.Rec, it, deadline) {
		c.recs.Ack(it.ID, nil)
	}
	if !r.Wait(deadline) {
		r.Mu.Lock()
		acked := r.Done // the reply raced the deadline
		r.Done = true
		r.Mu.Unlock()
		if !acked {
			return wire.Response{}, errReceiveTimeout
		}
		r.Drain()
	}
	if r.failed {
		if err := cc.Err(); err != nil {
			return wire.Response{}, err
		}
		return wire.Response{}, errSendTimeout // refused by a ring full past the deadline
	}
	resp := wire.Response{ID: it.ID, Stamp: r.stamp, WID: r.wid, Err: r.errMsg}
	if len(r.val) > 0 {
		resp.Val = append([]byte(nil), r.val...) // Do's caller may retain it
	}
	return resp, nil
}

// Static timeout errors: a timed-out attempt allocates none.
var (
	errSendTimeout    = fmt.Errorf("netreg: send: %w", ErrTimeout)
	errReceiveTimeout = fmt.Errorf("netreg: receive: %w", ErrTimeout)
)

// rec is one logical round trip's pooled record. Each attempt retags it
// and sends one item under the new tag; the ack lands the reply here and
// rings the doorbell. The reply fields are written under Mu by the ack
// and read by the waiter after the doorbell hands them over, hence the
// waiver.
//
//bloom:allowshared
type rec struct {
	pipe.Rec
	wval   []byte // the request's value (owned; reused across ops)
	val    []byte // the reply's value (owned; reused across ops)
	stamp  int64
	wid    uint32
	errMsg string
	failed bool
}

// recPool is the pipe.Sink of a client's connections.
type recPool struct {
	pipe.Pool[rec, *rec]
}

// Dequeued implements pipe.Sink; a round trip has nothing to seal.
func (p *recPool) Dequeued(uint64, bool) {}

// Ack implements pipe.Sink: a current ack lands the reply, or the
// failure, in the attempt's record and rings its doorbell.
//
//bloom:noalloc
func (p *recPool) Ack(id uint64, resp *wire.Response) {
	r, current := p.Lock(id)
	if current {
		r.Done, r.failed = true, resp == nil
		if resp != nil {
			r.land(resp)
		}
		r.Ring()
	}
	p.Unlock(&r.Rec)
}

// land copies a reply into the record; the caller holds Mu. The copy is
// mandatory: resp.Val aliases the reader's frame buffer, which the next
// response reuses.
//
//bloom:noalloc
func (r *rec) land(resp *wire.Response) {
	r.val = append(r.val[:0], resp.Val...)
	r.stamp, r.wid, r.errMsg = resp.Stamp, resp.WID, resp.Err
}

// isTimeout reports whether err stems from a deadline expiration.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.Is(err, ErrTimeout) || errors.Is(err, os.ErrDeadlineExceeded) ||
		(errors.As(err, &ne) && ne.Timeout())
}

// Do performs one logical round trip for a caller-built request,
// through this client's whole recovery stack (pipelining, retry with
// per-client jittered backoff, reconnect, circuit breaker, at-most-once
// dedup identity). The client owns the request's identity: Seq and
// Client are overwritten, and ID is ignored, since each attempt travels
// under a correlation id of its own. A request that names a register
// (Reg) goes to it; an empty Reg means the client's register
// (WithRegister), so one connection can carry traffic for several
// registers. A server error reply is returned as a non-nil error
// alongside the response. The response value does not alias the
// connection's frame buffer and is safe to retain; it is a read's one
// allocation.
//
// The op must be "read", "write", "qread" or "qwrite". Any other op fails
// at once with an error wrapping wire.ErrUnknownOp; nothing is sent and
// the connection is untouched.
func (c *Client[V]) Do(req *wire.Request) (wire.Response, error) {
	switch req.Op {
	case "read", "write", "qread", "qwrite":
		return c.roundTrip(req)
	}
	return wire.Response{}, fmt.Errorf("%w %q", wire.ErrUnknownOp, req.Op)
}

// Addr returns the server address the client dials.
func (c *Client[V]) Addr() string { return c.addr }

// ReadErr performs a remote read through the given port.
func (c *Client[V]) ReadErr(port int) (V, int64, error) {
	var v V
	resp, err := c.roundTrip(&wire.Request{Op: "read", Port: port})
	if err != nil {
		return v, 0, err
	}
	if err := json.Unmarshal(resp.Val, &v); err != nil {
		return v, 0, fmt.Errorf("netreg: decoding value: %w", err)
	}
	return v, resp.Stamp, nil
}

// WriteErr performs a remote write (single-writer discipline applies).
func (c *Client[V]) WriteErr(v V) (int64, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return 0, fmt.Errorf("netreg: encoding value: %w", err)
	}
	resp, err := c.roundTrip(&wire.Request{Op: "write", Val: raw})
	if err != nil {
		return 0, err
	}
	return resp.Stamp, nil
}

// Reg is a register.Stamped adapter over one or more clients: reads fan
// in through per-port clients, writes go through the writer's client.
type Reg[V any] struct {
	// ReadClients[port] serves reads for that port; WriteClient serves
	// the single writer. Entries may alias when one process plays
	// several roles — NewSharedReg aliases them all onto one pipelined
	// connection.
	ReadClients []*Client[V]
	WriteClient *Client[V]
}

// NewReg dials one connection per read port plus one for the writer —
// each port is one sequential user, so each gets a serial connection of
// its own. Dial options (deadlines, retry/breaker policy, a shared RPC
// tally) apply to every connection.
func NewReg[V any](addr string, ports int, opts ...DialOption) (*Reg[V], error) {
	r := &Reg[V]{}
	for p := 0; p < ports; p++ {
		c, err := Dial[V](addr, opts...)
		if err != nil {
			r.Close()
			return nil, err
		}
		r.ReadClients = append(r.ReadClients, c)
	}
	w, err := Dial[V](addr, opts...)
	if err != nil {
		r.Close()
		return nil, err
	}
	r.WriteClient = w
	return r, nil
}

// NewSharedReg dials ONE pipelined connection and serves every port (and
// the writer) over it: the ports' concurrent accesses multiplex as
// in-flight requests on the shared link instead of occupying a connection
// each. This is the arrangement the pipelined transport exists for — and
// runs over it certify exactly like per-connection runs, because stamps
// are assigned server-side regardless of how requests traveled.
func NewSharedReg[V any](addr string, ports int, opts ...DialOption) (*Reg[V], error) {
	c, err := Dial[V](addr, opts...)
	if err != nil {
		return nil, err
	}
	r := &Reg[V]{WriteClient: c}
	for p := 0; p < ports; p++ {
		r.ReadClients = append(r.ReadClients, c)
	}
	return r, nil
}

// Close releases all connections (aliased clients close once; Close is
// idempotent).
func (r *Reg[V]) Close() {
	for _, c := range r.ReadClients {
		if c != nil {
			c.Close()
		}
	}
	if r.WriteClient != nil {
		r.WriteClient.Close()
	}
}

// Read implements register.Reg; it panics on transport failure (see the
// Client doc comment — with a retry policy the client absorbs transient
// faults first, and with a breaker the failure is a fast ErrUnavailable
// rather than a hang).
func (r *Reg[V]) Read(port int) V {
	v, _ := r.ReadStamped(port)
	return v
}

// ReadStamped implements register.Stamped.
func (r *Reg[V]) ReadStamped(port int) (V, int64) {
	if port < 0 || port >= len(r.ReadClients) {
		panic(fmt.Sprintf("netreg: read port %d out of range [0,%d)", port, len(r.ReadClients)))
	}
	v, stamp, err := r.ReadClients[port].ReadErr(port)
	if err != nil {
		panic(fmt.Sprintf("netreg: remote read failed: %v", err))
	}
	return v, stamp
}

// Write implements register.Reg; it panics on transport failure, like
// Read.
func (r *Reg[V]) Write(v V) { r.WriteStamped(v) }

// WriteStamped implements register.Stamped.
func (r *Reg[V]) WriteStamped(v V) int64 {
	stamp, err := r.WriteClient.WriteErr(v)
	if err != nil {
		panic(fmt.Sprintf("netreg: remote write failed: %v", err))
	}
	return stamp
}
