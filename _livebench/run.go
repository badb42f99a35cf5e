package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"react/internal/core"
	"react/internal/engine"
	"react/internal/event"
	"react/internal/journal"
	"react/internal/region"
	"react/internal/taskq"
	"react/internal/wire"
)

const (
	// setups is how many times a pass builds its server, crowd and
	// requester connections; setup_s is their median and the last one
	// carries the load. A single set-up takes milliseconds, so one sample
	// is mostly scheduler noise, and a process's first few are 2–4×
	// slower than the rest; with 15, the quartile spread of setup_s over
	// ten runs was 0.2–0.6 of its median (DESIGN.md).
	setups = 41
	// drainLimit bounds the wait for the last results after the final
	// scheduled submit: the longest deadline (1.2 s) plus the longest
	// delayed execution (1.3 s) plus two batch polls, with margin.
	drainLimit = 5 * time.Second
	// leadIn separates the end of set-up from the first due submission so
	// the connection readers are parked before the first frame is due.
	leadIn = 20 * time.Millisecond
	// setupIdle is how long the process idles before each timed set-up
	// of a workload without a journal. Timed straight after the
	// collection that precedes it, such a set-up's sub-millisecond cost
	// swung with whatever state that collection left the CPUs in: over
	// ten runs the quartile spread of setup_s was 0.18–0.30 on steady and
	// overload, against 0.07–0.08 when every set-up starts, like a server
	// on a quiet machine, from an idle process. heavy's journaled set-up
	// (≈3 ms of journal open and 1000 journaled registrations) went the
	// other way, 0.10–0.14 without the idle against 0.41–0.44 with it, so
	// it is timed straight after the collection.
	setupIdle = 25 * time.Millisecond
)

// submitObs is what the requester saw of one task's submission. The
// dispatcher writes sendAt (and failed, when the write fails); the reader
// of the task's connection writes the rest when the reply arrives.
type submitObs struct {
	sendAt, ackAt time.Time // written to the connection; reply received
	code          string    // typed refusal code; "" when admitted
	failed        string    // transport or untyped server error
}

// admitted reports an "ok" submit reply.
func (s submitObs) admitted() bool { return !s.ackAt.IsZero() && s.code == "" && s.failed == "" }

// assignObs is one assignment as the crowd received it from its feed.
type assignObs struct {
	task       int32
	worker     int32
	assignedAt time.Time // the engine's stamp, equal to the spine assign event's At
	recv       time.Time
}

// completeObs is one crowd Complete call.
type completeObs struct {
	task       int32
	worker     int32
	assignedAt time.Time
	due, call  time.Time
	ok         bool
	failed     string // an error other than the expected "no longer yours"
}

// resultObs is one result frame at a requester connection.
type resultObs struct {
	task    int32 // -1 for an id the benchmark never offered
	at      time.Time
	met     bool
	expired bool
}

// rig is one live server with its crowd registered and requesters
// watching.
type rig struct {
	srv   *wire.Server
	core  *core.Server
	store *journal.Store // nil without the journal
	dir   string         // journal data dir
	feeds []<-chan core.Assignment
	reqs  []*requester
}

// setup builds a rig: listen (and open the journal), register the crowd,
// dial and watch from every requester connection.
func setup(sp spec, in *inputs, tmp string) (*rig, error) {
	r := &rig{}
	opts := sp.serverOptions()
	if sp.journal {
		dir, err := os.MkdirTemp(tmp, "journal-")
		if err != nil {
			return nil, err
		}
		r.dir = dir
		store, err := journal.Open(journal.Options{Dir: dir, FsyncInterval: journalFsync, Logf: log.Printf})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		srv, _, err := wire.ServeDurable("127.0.0.1:0", opts, store)
		if err != nil {
			store.Close()
			os.RemoveAll(dir)
			return nil, err
		}
		r.srv, r.store = srv, store
	} else {
		srv, err := wire.Serve("127.0.0.1:0", opts)
		if err != nil {
			return nil, err
		}
		r.srv = srv
	}
	r.core = r.srv.Core()
	for _, m := range in.crowd {
		feed, err := r.core.RegisterWorker(m.id, region.Point{Lat: m.lat, Lon: m.lon})
		if err != nil {
			r.close()
			return nil, fmt.Errorf("register %s: %w", m.id, err)
		}
		r.feeds = append(r.feeds, feed)
	}
	for c := 0; c < in.conns; c++ {
		req, err := dialRequester(r.srv.Addr())
		if err != nil {
			r.close()
			return nil, fmt.Errorf("requester: %w", err)
		}
		r.reqs = append(r.reqs, req)
	}
	return r, nil
}

// historyLag and historyLatency place the prefilled records: the newest
// was submitted historyLag before the load starts and each finished
// historyLatency after its submission, about heavy's result_p50_ms.
const (
	historyLag     = 2 * time.Second
	historyLatency = 400 * time.Millisecond
)

// prefill bulk-loads sp.history completed records into the live store
// through TaskStore.Restore, the seam journal recovery loads a snapshot
// through: the tasks a server running at the workload's rate finished in
// the history/rate seconds before now and still retains. Restore raises
// no spine event and writes no journal record, so the engine's counters,
// the journal replay and every check see only the offered tasks.
func prefill(sp spec, in *inputs, store *engine.TaskStore, now time.Time) error {
	rng := rand.New(rand.NewSource(in.historySeed))
	gen := taskGenerator()
	gen.Prefix = "history"
	gap := time.Duration(float64(time.Second) / sp.rate)
	newest := now.Add(-historyLag)
	for i := 0; i < sp.history; i++ {
		at := newest.Add(-time.Duration(sp.history-1-i) * gap)
		t := gen.Make(i, at, rng)
		t.Submitted = at
		r := taskq.Record{
			Task:       t,
			Status:     taskq.Completed,
			Worker:     in.crowd[i%len(in.crowd)].id,
			FinishedAt: at.Add(historyLatency),
			Attempts:   1,
		}
		if err := store.Restore(r); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	return nil
}

// close drops the requesters and stops the server, which closes every
// crowd feed and, last, the journal. The journal dir stays for replay.
func (r *rig) close() error {
	for _, req := range r.reqs {
		req.close()
	}
	return r.srv.Close()
}

func (r *rig) removeDir() {
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// crowdSim is the in-process crowd: one goroutine per worker drains its
// core feed, and each assignment completes on a timer when its synthetic
// execution time is due. No connection or OS thread exists per worker.
type crowdSim struct {
	srv *core.Server
	in  *inputs

	recvWG  sync.WaitGroup
	assigns [][]assignObs // per worker, written only by that worker's reader

	mu        sync.Mutex
	closing   bool
	pending   sync.WaitGroup // completion timers; Add only under mu while !closing
	completes []completeObs
}

func startCrowd(srv *core.Server, in *inputs, feeds []<-chan core.Assignment) *crowdSim {
	c := &crowdSim{srv: srv, in: in, assigns: make([][]assignObs, len(feeds)), completes: make([]completeObs, 0, 2*len(in.jobs))}
	for w, feed := range feeds {
		c.recvWG.Add(1)
		go c.read(w, feed)
	}
	return c
}

// read drains one worker's feed until the server closes it.
func (c *crowdSim) read(w int, feed <-chan core.Assignment) {
	defer c.recvWG.Done()
	exec := c.in.crowd[w].exec
	for n := 0; ; n++ {
		a, ok := <-feed
		if !ok {
			return
		}
		recv := time.Now()
		task, known := c.in.index[a.TaskID]
		if !known {
			task = -1
		}
		c.assigns[w] = append(c.assigns[w], assignObs{task: task, worker: int32(w), assignedAt: a.AssignedAt, recv: recv})
		d := exec[n%len(exec)]
		c.mu.Lock()
		if c.closing {
			c.mu.Unlock()
			continue
		}
		c.pending.Add(1)
		c.mu.Unlock()
		due := recv.Add(d)
		time.AfterFunc(d, func() { c.complete(w, task, a, due) })
	}
}

// complete delivers one answer. A worker whose task was revoked or
// re-bound still answers; the server refusing it is expected traffic.
func (c *crowdSim) complete(w int, task int32, a core.Assignment, due time.Time) {
	defer c.pending.Done()
	call := time.Now()
	_, err := c.srv.Complete(a.TaskID, a.WorkerID, "synthetic answer")
	o := completeObs{task: task, worker: int32(w), assignedAt: a.AssignedAt, due: due, call: call, ok: err == nil}
	if err != nil && !errors.Is(err, core.ErrNotAssigned) && !errors.Is(err, taskq.ErrBadState) {
		o.failed = err.Error()
	}
	c.mu.Lock()
	c.completes = append(c.completes, o)
	c.mu.Unlock()
}

// quiesce stops scheduling completions and waits for the pending ones.
func (c *crowdSim) quiesce() {
	c.mu.Lock()
	c.closing = true
	c.mu.Unlock()
	c.pending.Wait()
}

// pass is one measured run of a workload against a fresh server: set up,
// drive the open-loop schedule, drain, and keep every observation.
type pass struct {
	sp      spec
	in      *inputs
	seconds float64

	setupTimes []float64 // seconds

	start    time.Time // the instant job offset 0 was due
	window   time.Time // the measured window opens: start + warmup
	loadEnd  time.Time // drain complete (or given up)
	subs     []submitObs
	admitted atomic.Int64  // "ok" submit replies
	acked    atomic.Int64  // submit replies of any kind
	protoErr int64         // frames the requesters could not place
	results  [][]resultObs // per connection
	assigns  []assignObs
	complete []completeObs

	procStart, procEnd procSample // the measured window's ends
	maxRSS             float64
	rssLifetime        bool // the peak could not be reset: maxRSS is the process's

	// Program state read when the measured window opens and when the
	// drain ends.
	eng                   engine.Stats
	wireStart, wireEnd    wire.ServerMetrics
	busStart, busEnd      event.Stats
	admStart, admCounters [4]int64 // admitted, rejected_probability, rejected_rate, shed
	shedStart             int64    // engine.Stats.Shed when the window opens
	admOn                 bool
	journalStart, journal journal.Stats
	shards                []engine.ShardStat
	recovered             map[string]taskq.Record // heavy: journal replayed after shutdown
	replayErr             error

	tr *tracer
}

// runPass executes one pass. tmp holds journal dirs.
func runPass(sp spec, in *inputs, seconds float64, traced bool, tmp string) (*pass, error) {
	p := &pass{sp: sp, in: in, seconds: seconds}
	var r *rig
	for k := 0; k < setups; k++ {
		// Each set-up starts from a collected heap, so the garbage of the
		// previous one is not charged to it.
		runtime.GC()
		if !sp.journal {
			time.Sleep(setupIdle)
		}
		t0 := time.Now()
		next, err := setup(sp, in, tmp)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		p.setupTimes = append(p.setupTimes, time.Since(t0).Seconds())
		if k < setups-1 {
			if err := next.close(); err != nil {
				return nil, fmt.Errorf("setup teardown: %w", err)
			}
			next.removeDir()
			continue
		}
		r = next
	}
	defer r.removeDir()
	if err := prefill(sp, in, r.core.Tasks(), time.Now()); err != nil {
		r.close()
		return nil, err
	}

	cr := startCrowd(r.core, in, r.feeds)
	p.subs = make([]submitObs, len(in.jobs))
	p.results = make([][]resultObs, in.conns)
	for c := range p.results {
		// Presized so the observation buffers do not grow, and move the
		// peak RSS, in the middle of the load.
		p.results[c] = make([]resultObs, 0, len(in.jobs))
	}
	readers := make([]*reader, in.conns)
	var readWG sync.WaitGroup
	for c, req := range r.reqs {
		readers[c] = &reader{p: p, conn: c}
		readWG.Add(1)
		go func(rd *reader, req *requester) {
			defer readWG.Done()
			rd.run(req)
		}(readers[c], req)
	}
	if traced {
		p.tr = attachTracer(sp, in, r)
	}

	// Hand the set-ups' garbage back to the OS and restart the peak RSS
	// from what is resident now, so max_rss_mb is the peak of the load
	// (the live store included), not of the inputs, the set-ups or an
	// earlier pass.
	debug.FreeOSMemory()
	p.rssLifetime = resetPeakRSS() != nil
	p.start = time.Now().Add(leadIn)
	p.window = p.start.Add(warmup)
	if p.tr != nil {
		p.tr.startProbe(p.window)
	}

	// Open loop: each submission is written at its due time whatever the
	// server has answered so far; a write that blocks delays the ones
	// behind it, which the send lag records.
	sent := 0
	for i, j := range in.jobs {
		if i == in.warm {
			time.Sleep(time.Until(p.window))
			p.wireStart = r.srv.Metrics()
			p.busStart = r.core.Events().Stats()
			p.admStart = admCounters(r.core)
			p.shedStart = r.core.Engine().Stats().Shed
			if r.store != nil {
				p.journalStart = r.store.Stats()
			}
			p.procStart = sampleProc()
		}
		due := p.start.Add(j.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		o := &p.subs[i]
		o.sendAt = time.Now()
		task := j.task
		// The latency limit runs from the due time; the wire carries the
		// deadline relative to the server's receipt.
		task.DeadlineMS = due.Add(j.deadline).Sub(o.sendAt).Milliseconds()
		if err := r.reqs[j.conn].write(&wire.Message{Type: "submit", Seq: uint64(i) + 1, Task: &task}); err != nil {
			o.failed = "write: " + err.Error()
			continue
		}
		sent++
	}
	// CPU and allocation are read over the offered window itself: the
	// drain that follows lasts as long as the slowest task, and its idle
	// ticking would otherwise be charged to the tasks offered.
	time.Sleep(time.Until(p.window.Add(time.Duration(seconds * float64(time.Second)))))
	p.procEnd = sampleProc()

	giveUp := time.Now().Add(drainLimit)
	for {
		done := p.acked.Load() == int64(sent)
		for _, rd := range readers {
			if rd.distinct.Load() < p.admitted.Load() {
				done = false
			}
		}
		if done || time.Now().After(giveUp) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.loadEnd = time.Now()
	p.maxRSS = peakRSSMiB(p.rssLifetime)

	p.eng = r.core.Engine().Stats()
	p.wireEnd = r.srv.Metrics()
	p.busEnd = r.core.Events().Stats()
	p.shards = r.core.Tasks().ShardStats()
	p.admOn = r.core.Admission() != nil
	p.admCounters = admCounters(r.core)
	if r.store != nil {
		p.journal = r.store.Stats()
	}
	if p.tr != nil {
		p.tr.stopProbe()
	}

	cr.quiesce()
	err := r.close()
	cr.recvWG.Wait()
	readWG.Wait()
	for _, rd := range readers {
		p.protoErr += rd.protoErr.Load()
	}
	if p.tr != nil {
		p.tr.finish()
	}
	if err != nil {
		return nil, fmt.Errorf("server close: %w", err)
	}
	for _, a := range cr.assigns {
		p.assigns = append(p.assigns, a...)
	}
	p.complete = cr.completes
	if r.store != nil {
		p.recovered, p.replayErr = replayJournal(r.dir)
	}
	return p, nil
}

// admCounters reads the admission controller's counters: admitted,
// rejected_probability, rejected_rate, shed. All zero without admission.
func admCounters(srv *core.Server) [4]int64 {
	adm := srv.Admission()
	if adm == nil {
		return [4]int64{}
	}
	a, rp, rr, sh := adm.Counters()
	return [4]int64{a, rp, rr, sh}
}

// replayJournal recovers the journal a closed server left behind, the
// way a restarting reactd would, and returns the recovered task records.
func replayJournal(dir string) (map[string]taskq.Record, error) {
	store, err := journal.Open(journal.Options{Dir: dir, Logf: log.Printf})
	if err != nil {
		return nil, err
	}
	st := store.TakeRecovered()
	if err := store.Close(); err != nil {
		return nil, err
	}
	if st == nil {
		return nil, errors.New("journal: nothing recovered")
	}
	return st.Tasks, nil
}
