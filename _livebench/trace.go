package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"react/internal/engine"
	"react/internal/event"
	"react/internal/profile"
	"react/internal/schedule"
)

// spineDepth is the traced subscription's buffer: deep enough to absorb
// a whole batch round's assign events plus a poll period of submits on
// the heaviest workload while the consumer is descheduled. The consumer
// only copies, so it keeps up on average; a drop fails the run.
const spineDepth = 1 << 16

// spineEv is the part of a spine event the trace keeps.
type spineEv struct {
	kind  event.Kind
	task  int32 // -1 for batch events and ids the benchmark never offered
	at    time.Time
	cause string
	batch event.BatchStats
}

// probeObs is one batch-path probe: the three calls a batch round makes
// before matching, timed on the live server's state.
type probeObs struct {
	start, snapEnd, availEnd, buildEnd time.Time
}

// tracer is the traced pass's view into the program: it reads only
// public seams (the event spine, the wire flush and journal fsync
// observers, and the task store, registry and graph builder called from
// outside), never instrumentation inside the program.
type tracer struct {
	index map[string]int32
	sub   *event.Subscription
	done  chan struct{}
	evs   []spineEv // written by the consumer until done closes

	mu      sync.Mutex
	flushes []timedSpan // [observed - latency, observed]
	fsyncs  []timedSpan

	tasks    *engine.TaskStore
	reg      *profile.Registry
	sched    schedule.Config
	stop     chan struct{}
	probed   chan struct{}
	probes   []probeObs // written by the probe until probed closes
	subDrops uint64
}

type timedSpan struct{ start, end time.Time }

func attachTracer(sp spec, in *inputs, r *rig) *tracer {
	t := &tracer{
		index: in.index,
		done:  make(chan struct{}),
		tasks: r.core.Tasks(),
		reg:   r.core.Workers(),
		sched: sp.serverOptions().Schedule,
	}
	t.sub = r.core.Events().Subscribe(spineDepth, nil)
	go t.consume()
	r.srv.SetFlushObserver(func(_, _ int, latency float64) {
		end := time.Now()
		t.mu.Lock()
		t.flushes = append(t.flushes, timedSpan{end.Add(-secs(latency)), end})
		t.mu.Unlock()
	})
	if r.store != nil {
		r.store.SetFsyncObserver(func(latency float64) {
			end := time.Now()
			t.mu.Lock()
			t.fsyncs = append(t.fsyncs, timedSpan{end.Add(-secs(latency)), end})
			t.mu.Unlock()
		})
	}
	return t
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func (t *tracer) consume() {
	defer close(t.done)
	for ev := range t.sub.C() {
		idx := int32(-1)
		if i, ok := t.index[ev.Task]; ok {
			idx = i
		}
		e := spineEv{kind: ev.Kind, task: idx, at: ev.At, cause: ev.Cause}
		if ev.Batch != nil {
			e.batch = *ev.Batch
		}
		t.evs = append(t.evs, e)
	}
}

// startProbe times TaskStore.Unassigned, Registry.Available and
// BuildGraph on the live state once per batch-poll period, from the given
// instant (the opening of the measured window).
func (t *tracer) startProbe(start time.Time) {
	t.stop = make(chan struct{})
	t.probed = make(chan struct{})
	go func() {
		defer close(t.probed)
		timer := time.NewTimer(time.Until(start))
		defer timer.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-timer.C:
			}
			var o probeObs
			o.start = time.Now()
			tasks := t.tasks.Unassigned()
			o.snapEnd = time.Now()
			workers := t.reg.Available()
			o.availEnd = time.Now()
			schedule.BuildGraph(t.sched, workers, tasks, o.availEnd)
			o.buildEnd = time.Now()
			t.probes = append(t.probes, o)
			timer.Reset(batchPoll)
		}
	}()
}

func (t *tracer) stopProbe() {
	close(t.stop)
	<-t.probed
}

// finish closes the subscription once the server has stopped and waits
// for the consumer to drain it. The lock orders the observers' last
// appends before the analysis reads them.
func (t *tracer) finish() {
	t.subDrops = t.sub.Dropped()
	t.sub.Close()
	<-t.done
	t.mu.Lock()
	defer t.mu.Unlock()
}

// span is one recorded interval. Spans of one task share its id; parent
// is the index of the enclosing span, -1 for a root.
type span struct {
	name       string
	task       int32
	parent     int32
	start, end time.Time
}

func (s span) layer() string {
	l, _, _ := strings.Cut(s.name, ".")
	return l
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children are counted once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Time }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := spans[k].start, spans[k].end
			if a.Before(s.start) {
				a = s.start
			}
			if b.After(s.end) {
				b = s.end
			}
			if b.After(a) {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
		var covered time.Duration
		var curA, curB time.Time
		for n, v := range ivs {
			switch {
			case n == 0:
				curA, curB = v.a, v.b
			case v.a.After(curB):
				covered += curB.Sub(curA)
				curA, curB = v.a, v.b
			case v.b.After(curB):
				curB = v.b
			}
		}
		if len(ivs) > 0 {
			covered += curB.Sub(curA)
		}
		out[i] = s.end.Sub(s.start) - covered
	}
	return out
}

// writeSpans writes the trace as CSV, times in microseconds from origin
// (the start of the schedule).
func writeSpans(path string, spans []span, origin time.Time) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,task,start_us,end_us")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%.1f,%.1f\n", i, s.parent, s.name, s.task,
			float64(s.start.Sub(origin))/1e3, float64(s.end.Sub(origin))/1e3)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
