package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"react/internal/admission"
	"react/internal/core"
	"react/internal/engine"
	"react/internal/event"
	"react/internal/profile"
	"react/internal/region"
	"react/internal/taskq"
)

// Backend is the middleware surface the TCP transport serves: implemented
// by *core.Server (one region) and *federation.Coordinator (a fleet of
// region servers routed by geography).
type Backend interface {
	RegisterWorker(id string, loc region.Point) (<-chan core.Assignment, error)
	ReconnectWorker(id string) (<-chan core.Assignment, error)
	DeregisterWorker(id string) error
	DetachWorker(id string) error
	Worker(id string) (*profile.Profile, bool)
	Submit(t taskq.Task) error
	Complete(taskID, workerID, answer string) (core.Result, error)
	Feedback(taskID string, positive bool) error
	Stats() core.Stats
	Stop()
}

// ResultRelay forwards backend results to a transport installed later —
// the backend is constructed (with its OnResult hook) before the transport
// exists. Install relay.Publish as the backend's result hook, then hand the
// relay to ServeBackend.
type ResultRelay struct {
	mu sync.Mutex
	fn func(core.Result)
}

// Publish forwards a result to the attached transport (drops it when none
// is attached yet).
func (r *ResultRelay) Publish(res core.Result) {
	r.mu.Lock()
	fn := r.fn
	r.mu.Unlock()
	if fn != nil {
		fn(res)
	}
}

func (r *ResultRelay) attach(fn func(core.Result)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fn = fn
}

// DefaultIdleTimeout is the server's per-connection read deadline: a
// connection that sends nothing — not even a keepalive ping — for this
// long is presumed dead and torn down, which detaches its worker and
// returns any held task to the pool. Clients ping every DefaultKeepalive
// (well under this) so healthy idle connections survive. Without the
// deadline, a silently dead connection (pulled cable, NAT timeout,
// partition) holds its worker "busy" forever.
const DefaultIdleTimeout = 90 * time.Second

// eventWatchDepth bounds one watch-events subscription's buffer. Deep
// enough to ride out transient client stalls; a stream that falls further
// behind drops frames (counted on the bus) rather than blocking the shard
// lock under which events are published.
const eventWatchDepth = 1024

// Server exposes a Backend over TCP.
type Server struct {
	backend Backend
	core    *core.Server // non-nil only for single-region Serve
	ln      net.Listener

	idle atomic.Int64 // per-connection read deadline (ns); <=0 disables

	// Transport-level health counters, snapshotted by Metrics for the
	// observability plane. Atomics: the read loops bump them per frame,
	// the per-connection flushers per flush.
	connsTotal    atomic.Int64
	framesRead    atomic.Int64
	framesWritten atomic.Int64
	badFrames     atomic.Int64
	errorsSent    atomic.Int64
	bytesWritten  atomic.Int64
	flushes       atomic.Int64

	// flushObs, when set, receives every flush's shape (frame count, byte
	// count, syscall latency in seconds) — how the observability plane
	// builds its frames-per-flush and flush-latency histograms.
	flushObs atomic.Value // func(frames, bytes int, latencySeconds float64)

	// writerCfg is the coalescer template stamped onto new connections.
	// Tests tweak it (interval, thresholds) before traffic starts.
	writerCfg writerConfig

	mu       sync.Mutex
	watchers map[*conn]struct{}
	conns    map[*conn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

// ServerMetrics is a snapshot of one Server's transport-level counters.
type ServerMetrics struct {
	ConnsActive   int   // connections currently open
	ConnsTotal    int64 // connections ever accepted
	Watchers      int   // connections subscribed to result pushes
	FramesRead    int64 // frames parsed off all connections
	FramesWritten int64 // frames written (responses + pushes)
	BadFrames     int64 // inbound frames that failed to parse
	ErrorsSent    int64 // "error" responses sent
	BytesWritten  int64 // frame bytes flushed onto sockets
	Flushes       int64 // coalesced write syscalls (FramesWritten/Flushes = batching factor)
}

// Metrics snapshots the transport counters.
func (s *Server) Metrics() ServerMetrics {
	s.mu.Lock()
	active, watchers := len(s.conns), len(s.watchers)
	s.mu.Unlock()
	return ServerMetrics{
		ConnsActive:   active,
		ConnsTotal:    s.connsTotal.Load(),
		Watchers:      watchers,
		FramesRead:    s.framesRead.Load(),
		FramesWritten: s.framesWritten.Load(),
		BadFrames:     s.badFrames.Load(),
		ErrorsSent:    s.errorsSent.Load(),
		BytesWritten:  s.bytesWritten.Load(),
		Flushes:       s.flushes.Load(),
	}
}

// SetFlushObserver installs a callback receiving every connection flush's
// shape: frames coalesced, bytes written, and write-syscall latency in
// seconds. The observability plane feeds histograms from it.
func (s *Server) SetFlushObserver(fn func(frames, bytes int, latencySeconds float64)) {
	if fn != nil {
		s.flushObs.Store(fn)
	}
}

// observeFlush is every connection writer's OnFlush hook: it aggregates
// the transport counters and forwards to the installed observer.
func (s *Server) observeFlush(frames, bytes int, elapsed time.Duration) {
	s.framesWritten.Add(int64(frames))
	s.bytesWritten.Add(int64(bytes))
	s.flushes.Add(1)
	if obs, _ := s.flushObs.Load().(func(int, int, float64)); obs != nil {
		obs(frames, bytes, elapsed.Seconds())
	}
}

type conn struct {
	c      net.Conn
	w      *connWriter   // coalesces every outbound frame (flush.go)
	scr    decodeScratch // reusable decode state; readLoop-only
	worker string        // non-empty once registered
	srv    *Server

	evMu  sync.Mutex
	evSub *event.Subscription // non-nil after watch-events
}

// Serve starts a region server listening on addr (e.g. "127.0.0.1:7341" or
// ":0" for an ephemeral port). The core server is constructed from opts
// with its result hook wired to watcher broadcast, and started.
func Serve(addr string, opts core.Options) (*Server, error) {
	var relay ResultRelay
	userHook := opts.OnResult
	opts.OnResult = func(r core.Result) {
		if userHook != nil {
			userHook(r)
		}
		relay.Publish(r)
	}
	cs := core.New(opts)
	cs.Start()
	s, err := ServeBackend(addr, cs, &relay)
	if err != nil {
		cs.Stop()
		return nil, err
	}
	s.core = cs
	return s, nil
}

// ServeBackend exposes an already-running backend (e.g. a federation
// coordinator) on addr. The relay must be the one whose Publish the caller
// installed as the backend's result hook; pass nil when no result pushes
// are needed.
func ServeBackend(addr string, b Backend, relay *ResultRelay) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		backend:  b,
		watchers: make(map[*conn]struct{}),
		conns:    make(map[*conn]struct{}),
	}
	s.idle.Store(int64(DefaultIdleTimeout))
	if relay != nil {
		relay.attach(func(r core.Result) {
			s.broadcast(Message{Type: "result", Result: toResultPayload(r)})
		})
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr reports the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetIdleTimeout changes the per-connection read deadline (default
// DefaultIdleTimeout). Zero or negative disables it. Existing connections
// adopt the new value at their next frame.
func (s *Server) SetIdleTimeout(d time.Duration) { s.idle.Store(int64(d)) }

// Core exposes the underlying region server for single-region deployments
// created with Serve; it is nil under ServeBackend.
func (s *Server) Core() *core.Server { return s.core }

// Backend exposes the middleware this transport serves.
func (s *Server) Backend() Backend { return s.backend }

// Close stops accepting, drops every connection, and stops the core server.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.c.Close()
	}
	s.wg.Wait()
	s.backend.Stop()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := &conn{c: nc, srv: s}
		wcfg := s.writerCfg
		wcfg.OnFlush = s.observeFlush
		c.w = newConnWriter(nc, wcfg)
		s.connsTotal.Add(1)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go c.readLoop()
	}
}

func (s *Server) broadcast(m Message) {
	s.mu.Lock()
	targets := make([]*conn, 0, len(s.watchers))
	for c := range s.watchers {
		targets = append(targets, c)
	}
	s.mu.Unlock()
	// Encode once, enqueue the same bytes everywhere: a broadcast to 10k
	// watchers costs one encode, and each connection's flusher coalesces
	// it with whatever else is in flight there.
	fb := encodeFrame(&m)
	for _, c := range targets {
		if err := c.w.enqueue(fb.b, false); err != nil {
			// A watcher that cannot be written to is dead or wedged.
			// Close its socket so the read loop errors out and teardown
			// removes it from s.watchers — a write error alone never
			// wakes the read side, and without this nudge a dead watcher
			// would stay subscribed until TCP happened to fail a read.
			c.c.Close()
		}
	}
	fb.release()
}

// send frames m and hands it to the connection's coalescer; the flusher
// performs the actual write. An error is the writer's sticky failure —
// the socket is already being torn down.
func (c *conn) send(m Message) error {
	fb := encodeFrame(&m)
	err := c.w.enqueue(fb.b, true) // inline: a reply should reach the waiting peer now
	fb.release()
	return err
}

// reply answers one request, echoing its sequence number so the client
// can correlate the response even after its own call timed out. Errors
// with a known class additionally carry a machine-readable Code so
// clients distinguish retryable from permanent failures.
func (c *conn) reply(seq uint64, err error) {
	if err != nil {
		c.srv.errorsSent.Add(1)
		c.send(Message{Type: "error", Seq: seq, Error: err.Error(), Code: errCode(err)})
		return
	}
	c.send(Message{Type: "ok", Seq: seq})
}

// errCode maps a backend error to its stable wire code ("" for errors
// with no defined class).
func errCode(err error) string {
	var rej *admission.RejectionError
	switch {
	case errors.As(err, &rej):
		return string(rej.Decision.Status)
	case errors.Is(err, engine.ErrQueueFull):
		return CodeQueueFull
	case errors.Is(err, taskq.ErrDuplicateTask):
		return CodeDuplicateTask
	case errors.Is(err, taskq.ErrPastDeadline):
		return CodePastDeadline
	}
	return ""
}

// requester identifies the submitting party for per-requester rate
// fairness: the registered worker id when the connection has one, else
// the remote address — one bucket per connection, which is the natural
// identity a TCP transport can actually attest.
func (c *conn) requester() string {
	if c.worker != "" {
		return c.worker
	}
	return c.c.RemoteAddr().String()
}

func (c *conn) readLoop() {
	defer c.srv.wg.Done()
	defer c.teardown()
	scanner := bufio.NewScanner(c.c)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for {
		// Refresh the idle deadline before every frame: a connection that
		// goes silent past it (no requests, no keepalive pings) fails the
		// next Scan, and teardown detaches its worker within a bounded
		// interval instead of holding it busy forever.
		if d := time.Duration(c.srv.idle.Load()); d > 0 {
			c.c.SetReadDeadline(time.Now().Add(d))
		} else {
			c.c.SetReadDeadline(time.Time{})
		}
		if !scanner.Scan() {
			return // EOF, error, or idle deadline
		}
		c.srv.framesRead.Add(1)
		m, err := c.scr.decode(scanner.Bytes())
		if err != nil {
			c.srv.badFrames.Add(1)
			c.srv.errorsSent.Add(1)
			c.send(Message{Type: "error", Seq: m.Seq, Error: "bad message: " + err.Error()})
			continue
		}
		c.handle(m)
	}
}

func (c *conn) handle(m *Message) {
	s := c.srv
	switch m.Type {
	case "register":
		if m.Worker == "" {
			c.reply(m.Seq, errors.New("register: missing worker id"))
			return
		}
		feed, err := s.backend.RegisterWorker(m.Worker, region.Point{Lat: m.Lat, Lon: m.Lon})
		if errors.Is(err, profile.ErrDuplicateWorker) {
			// A worker restored from a profile snapshot (or one whose old
			// connection died without teardown) reconnects under its id and
			// keeps its learned history; a second *live* connection is
			// still rejected by ReconnectWorker.
			feed, err = s.backend.ReconnectWorker(m.Worker)
			if err == nil {
				if p, ok := s.backend.Worker(m.Worker); ok {
					if loc := (region.Point{Lat: m.Lat, Lon: m.Lon}); loc.Valid() {
						p.SetLocation(loc)
					}
				}
			}
		}
		if err != nil {
			c.reply(m.Seq, err)
			return
		}
		c.worker = m.Worker
		c.reply(m.Seq, nil)
		// Forward assignments until the feed closes (deregistration or
		// server stop).
		//lint:ignore nakedgoroutine the forwarder's lifetime is the feed channel: the backend closes it on deregister/detach/stop
		go func() {
			for a := range feed {
				if err := c.send(Message{Type: "assignment", Assignment: toAssignmentPayload(a, time.Now())}); err != nil {
					c.c.Close()
					return
				}
			}
		}()

	case "deregister":
		if c.worker == "" {
			c.reply(m.Seq, errors.New("deregister: connection has no registered worker"))
			return
		}
		worker := c.worker
		c.worker = "" // teardown must not deregister twice
		c.reply(m.Seq, s.backend.DeregisterWorker(worker))

	case "location":
		// Guard before touching the backend: probing Worker("") on an
		// unregistered connection sent a nonsense lookup to the backend
		// (and through a federation, a routing miss) on every bad request.
		if c.worker == "" {
			c.reply(m.Seq, errors.New("location: connection has no registered worker"))
			return
		}
		p, ok := s.backend.Worker(c.worker)
		if !ok {
			c.reply(m.Seq, errors.New("location: connection has no registered worker"))
			return
		}
		loc := region.Point{Lat: m.Lat, Lon: m.Lon}
		if !loc.Valid() {
			c.reply(m.Seq, fmt.Errorf("location: invalid coordinates %v", loc))
			return
		}
		p.SetLocation(loc)
		c.reply(m.Seq, nil)

	case "available":
		if c.worker == "" {
			c.reply(m.Seq, errors.New("available: connection has no registered worker"))
			return
		}
		p, ok := s.backend.Worker(c.worker)
		if !ok {
			c.reply(m.Seq, errors.New("available: connection has no registered worker"))
			return
		}
		if m.Available == nil {
			c.reply(m.Seq, errors.New("available: missing value"))
			return
		}
		p.SetAvailable(*m.Available)
		c.reply(m.Seq, nil)

	case "submit":
		if m.Task == nil || m.Task.ID == "" {
			c.reply(m.Seq, errors.New("submit: missing task"))
			return
		}
		//lint:ignore clocktaint the live server stamps real arrival time on submitted tasks by definition; replayable runs go through the sim harness
		t := m.Task.Task(time.Now())
		// Backends with an admission plane run the gates and the reply
		// carries the verdict: ok frames the probability, error frames the
		// typed status plus a retry-after hint. Plain backends (admission
		// off, federations) answer as before — the Admission field simply
		// never appears, which is what keeps old clients working.
		type admissionBackend interface {
			SubmitFrom(requester string, t taskq.Task) (admission.Decision, error)
			Admission() *admission.Controller
		}
		if ab, ok := s.backend.(admissionBackend); ok && ab.Admission() != nil {
			d, err := ab.SubmitFrom(c.requester(), t)
			if err != nil {
				c.srv.errorsSent.Add(1)
				msg := Message{Type: "error", Seq: m.Seq, Error: err.Error(), Code: errCode(err)}
				if !d.Admitted() {
					msg.Admission = toAdmissionPayload(d)
				}
				c.send(msg)
				return
			}
			c.send(Message{Type: "ok", Seq: m.Seq, Admission: toAdmissionPayload(d)})
			return
		}
		c.reply(m.Seq, s.backend.Submit(t))

	case "complete":
		if m.TaskID == "" || m.Worker == "" {
			c.reply(m.Seq, errors.New("complete: missing task or worker id"))
			return
		}
		_, err := s.backend.Complete(m.TaskID, m.Worker, m.Answer)
		c.reply(m.Seq, err)

	case "feedback":
		if m.TaskID == "" || m.Positive == nil {
			c.reply(m.Seq, errors.New("feedback: missing task id or verdict"))
			return
		}
		c.reply(m.Seq, s.backend.Feedback(m.TaskID, *m.Positive))

	case "watch":
		s.mu.Lock()
		s.watchers[c] = struct{}{}
		s.mu.Unlock()
		c.reply(m.Seq, nil)

	case "task":
		// Task-status query: how requesters reconcile after a reconnect,
		// since result pushes during the outage are gone for good.
		if m.TaskID == "" {
			c.reply(m.Seq, errors.New("task: missing task id"))
			return
		}
		type statusBackend interface {
			TaskStatus(taskID string) (core.TaskStatus, bool)
		}
		sb, ok := s.backend.(statusBackend)
		if !ok {
			c.reply(m.Seq, errors.New("task: backend does not report task status"))
			return
		}
		payload := &TaskStatusPayload{TaskID: m.TaskID, State: "unknown"}
		if st, ok := sb.TaskStatus(m.TaskID); ok {
			payload.State = st.State.String()
			payload.Worker = st.Worker
			payload.MetDeadline = st.MetDeadline
		}
		c.send(Message{Type: "ok", Seq: m.Seq, Status: payload})

	case "watch-events":
		// Subscribe this connection to the engine's lifecycle event spine.
		// With a TaskID the stream narrows to that task's timeline
		// (submit→assign→…→terminal); without one every lifecycle event
		// flows. The subscription is bounded and lossy by design: a client
		// that cannot keep up loses frames (counted on the bus), never
		// stalls the engine.
		type eventBackend interface {
			Events() *event.Bus
		}
		eb, ok := s.backend.(eventBackend)
		if !ok {
			c.reply(m.Seq, errors.New("watch-events: backend does not expose the event spine"))
			return
		}
		taskID := m.TaskID
		filter := func(ev event.Event) bool {
			if !ev.Kind.Lifecycle() {
				return false
			}
			return taskID == "" || ev.Task == taskID
		}
		sub := eb.Events().Subscribe(eventWatchDepth, filter)
		c.evMu.Lock()
		prev := c.evSub
		c.evSub = sub
		c.evMu.Unlock()
		if prev != nil {
			prev.Close() // re-subscribe replaces the old stream
		}
		c.reply(m.Seq, nil)
		// Forward until the subscription closes (teardown or replacement).
		//lint:ignore nakedgoroutine the forwarder's lifetime is the subscription channel: teardown or a replacing watch-events closes it
		go func() {
			for ev := range sub.C() {
				if err := c.send(Message{Type: "event", Event: toEventPayload(ev)}); err != nil {
					c.c.Close()
					return
				}
			}
		}()

	case "regions":
		// Multi-region backends list per-region counters; a single-region
		// server reports itself as "all".
		type regionLister interface {
			Regions() []string
			RegionStats(string) (core.Stats, bool)
		}
		var regions []RegionStatsPayload
		if rl, ok := s.backend.(regionLister); ok {
			ids := rl.Regions()
			sort.Strings(ids)
			for _, id := range ids {
				if st, ok := rl.RegionStats(id); ok {
					regions = append(regions, RegionStatsPayload{Region: id, Stats: *toStatsPayload(st)})
				}
			}
		} else {
			regions = []RegionStatsPayload{{Region: "all", Stats: *toStatsPayload(s.backend.Stats())}}
		}
		c.send(Message{Type: "ok", Seq: m.Seq, Regions: regions})

	case "ping":
		// Keepalive: refreshes the server's idle deadline, lets clients
		// detect dead connections through NATs, and lets operators probe
		// liveness with netcat.
		c.reply(m.Seq, nil)

	case "stats":
		c.send(Message{Type: "ok", Seq: m.Seq, Stats: toStatsPayload(s.backend.Stats())})

	default:
		c.reply(m.Seq, errors.New("unknown message type "+m.Type))
	}
}

func (c *conn) teardown() {
	s := c.srv
	c.evMu.Lock()
	if c.evSub != nil {
		c.evSub.Close() // unblocks the event forwarder goroutine
		c.evSub = nil
	}
	c.evMu.Unlock()
	s.mu.Lock()
	delete(s.watchers, c)
	delete(s.conns, c)
	closed := s.closed
	s.mu.Unlock()
	if c.worker != "" && !closed {
		// A vanished worker's held task goes back to the pool; the profile
		// survives the disconnect so a later register reconnects with its
		// learned history intact. Detach comes before the close below, so
		// the worker is unavailable before its peer can see EOF: no batch
		// round matches tasks to a connection that is already gone.
		s.backend.DetachWorker(c.worker)
	}
	// Flush-on-close before the socket drops: a reply enqueued just before
	// the peer's EOF (deregister, a final stats answer) still reaches a
	// peer that is shutting down write-first. The final flush is bounded,
	// so a wedged peer cannot stall teardown.
	c.w.close()
	c.c.Close()
}

// ErrClosed is returned by client operations after Close.
var ErrClosed = errors.New("wire: connection closed")

var _ io.Closer = (*Server)(nil)
