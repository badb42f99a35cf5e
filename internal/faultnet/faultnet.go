// Package faultnet is a fault-injecting TCP proxy for exercising the wire
// layer's resilience machinery. It sits between REACT clients and a region
// server and, on command or by seeded chance, delays traffic, hard-resets
// connections (RST, not FIN — the peer sees an error, not a clean close),
// blackholes a partition, or retargets to a different backend after a
// server restart. The chaos tests in internal/wire and the `reactload
// -chaos` harness drive their failure scenarios through it; production
// code never imports this package.
//
// All randomness is seeded and all waiting goes through an injected
// clock.Sleeper, so a chaos run's fault schedule is reproducible.
package faultnet

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"

	"react/internal/clock"
)

// partitionPoll is how often an in-flight transfer re-checks whether a
// partition has been healed (or imposed). Coarse is fine: partitions in
// chaos tests last tens to hundreds of milliseconds.
const partitionPoll = 2 * time.Millisecond

// Config parameterizes a Proxy. Target is required; everything else has a
// usable zero value.
type Config struct {
	// Listen is the proxy's own address (default "127.0.0.1:0" — an
	// ephemeral port reported by Addr).
	Listen string

	// Target is the backend the proxy forwards to. Retargetable at
	// runtime with SetTarget (the server-restart scenario).
	Target string

	// Delay is added to every chunk in both directions.
	Delay time.Duration

	// DropRate in [0,1] is the per-chunk probability of hard-resetting
	// the connection instead of forwarding.
	DropRate float64

	// Seed drives the drop-rate dice.
	Seed int64

	// Clock is the timebase for delays and partition polling (default
	// the system clock; tests may slow or virtualize it).
	Clock clock.Sleeper
}

// Stats are the proxy's lifetime counters.
type Stats struct {
	Accepted int64 // connections accepted and linked to the target
	Refused  int64 // connections rejected (partitioned, or target down)
	Resets   int64 // connections hard-reset by fault injection
	BytesUp  int64 // client→server bytes forwarded (counted as each chunk is handed on)
	BytesDn  int64 // server→client bytes forwarded (likewise)
}

// Proxy is a running fault-injection proxy. Safe for concurrent use.
type Proxy struct {
	ln  net.Listener
	clk clock.Sleeper

	mu          sync.Mutex
	target      string
	delay       time.Duration
	dropRate    float64
	rng         *rand.Rand
	partitioned bool
	links       map[*link]struct{}
	stats       Stats
	closed      bool

	wg sync.WaitGroup
}

// link is one proxied connection pair.
type link struct {
	client net.Conn
	server net.Conn
	once   sync.Once
}

// reset tears the pair down abruptly: SetLinger(0) makes the close emit a
// TCP RST, so both peers observe a connection error rather than EOF.
func (l *link) reset() {
	l.once.Do(func() {
		if tc, ok := l.client.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		if tc, ok := l.server.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		l.client.Close()
		l.server.Close()
	})
}

// close tears the pair down without forcing an RST.
func (l *link) close() {
	l.once.Do(func() {
		l.client.Close()
		l.server.Close()
	})
}

// New starts a proxy. Close releases it.
func New(cfg Config) (*Proxy, error) {
	if cfg.Target == "" {
		return nil, errors.New("faultnet: missing target")
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System{}
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		ln:       ln,
		clk:      cfg.Clock,
		target:   cfg.Target,
		delay:    cfg.Delay,
		dropRate: cfg.DropRate,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		links:    make(map[*link]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the address clients should dial instead of the real server.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetDelay changes the per-chunk forwarding delay for existing and future
// connections.
func (p *Proxy) SetDelay(d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.delay = d
}

// SetDropRate changes the per-chunk reset probability (clamped to [0,1]).
func (p *Proxy) SetDropRate(r float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r < 0 {
		r = 0
	}
	if r > 1 {
		r = 1
	}
	p.dropRate = r
}

// SetTarget points future connections at a new backend — the proxy-side
// half of a server restart. Existing links keep their old backend until
// they die (usually because the old server closed them).
func (p *Proxy) SetTarget(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.target = addr
}

// Partition blackholes the proxy: existing links stall mid-transfer (no
// FIN, no RST — bytes just stop, exactly what a routing failure looks
// like) and new connections are refused. Healing the partition releases
// stalled transfers; connections refused meanwhile must redial.
func (p *Proxy) Partition(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.partitioned = on
}

// ResetAll hard-resets every live link and reports how many were cut.
func (p *Proxy) ResetAll() int {
	p.mu.Lock()
	links := make([]*link, 0, len(p.links))
	for l := range p.links {
		links = append(links, l)
	}
	p.stats.Resets += int64(len(links))
	p.mu.Unlock()
	for _, l := range links {
		l.reset()
	}
	return len(links)
}

// Stats snapshots the proxy's counters.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close stops accepting, severs every link, and waits for the forwarding
// goroutines to drain. Idempotent.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	links := make([]*link, 0, len(p.links))
	for l := range p.links {
		links = append(links, l)
	}
	p.mu.Unlock()
	p.ln.Close()
	for _, l := range links {
		l.close()
	}
	p.wg.Wait()
	return nil
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		refuse := p.partitioned || p.closed
		target := p.target
		p.mu.Unlock()
		if refuse {
			p.refuse(c)
			continue
		}
		s, err := net.DialTimeout("tcp", target, 2*time.Second)
		if err != nil {
			p.refuse(c)
			continue
		}
		l := &link{client: c, server: s}
		p.addLink(l)
		p.wg.Add(2)
		go p.pipe(l, l.client, l.server, &p.stats.BytesUp)
		go p.pipe(l, l.server, l.client, &p.stats.BytesDn)
	}
}

func (p *Proxy) refuse(c net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Refused++
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0) // refusal reads as a reset, not a polite close
	}
	c.Close()
}

func (p *Proxy) addLink(l *link) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.links[l] = struct{}{}
	p.stats.Accepted++
}

func (p *Proxy) dropLink(l *link) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.links, l)
}

// faults samples the current fault settings for one chunk: the delay to
// impose, whether the chunk triggers a reset, and whether a partition is
// in force.
func (p *Proxy) faults() (delay time.Duration, reset, partitioned bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dropRate > 0 && p.rng.Float64() < p.dropRate {
		p.stats.Resets++
		reset = true
	}
	return p.delay, reset, p.partitioned
}

func (p *Proxy) partitionedNow() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.partitioned
}

func (p *Proxy) countBytes(counter *int64, n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	*counter += int64(n)
}

// pipe forwards src→dst chunk by chunk, applying the proxy's fault policy
// to each chunk. It owns one direction of one link; either direction
// dying tears down the whole link.
func (p *Proxy) pipe(l *link, src, dst net.Conn, counter *int64) {
	defer p.wg.Done()
	defer p.dropLink(l)
	defer l.close()
	buf := make([]byte, 32*1024)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			delay, reset, _ := p.faults()
			if reset {
				l.reset()
				return
			}
			if delay > 0 {
				p.clk.Sleep(delay)
			}
			// A partition stalls the transfer without closing anything:
			// poll until it heals or the link is torn down under us.
			for p.partitionedNow() {
				p.clk.Sleep(partitionPoll)
			}
			// Count before the write: once dst has the bytes, a reply to
			// them can reach the client before a count taken afterwards.
			p.countBytes(counter, n)
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}
