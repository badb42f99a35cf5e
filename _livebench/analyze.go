package main

import (
	"fmt"
	"time"

	"react/internal/event"
	"react/internal/taskq"
	"react/internal/wire"
)

const (
	// lagBound is how late the generator itself may run (p99 of due →
	// sent, and of due → crowd answer) before the run is invalid: past it
	// the numbers describe the load generator, not the server. It is half
	// the batch-poll period that sets the latency scale.
	lagBound = batchPoll / 2
	// residualBound is how far the per-task stage spans may sum from the
	// task's measured submit→result time (median over completed tasks)
	// before the trace counts as not covering the path.
	residualBound = time.Millisecond
)

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	n     int  // samples behind a percentile; 0 for other metrics
	short bool // percentile has fewer than minBeyond samples above it
}

// analysis is a pass reduced to metrics and a verdict.
type analysis struct {
	verdict           verdict
	attempted, failed int
	invalid           []string // reasons the run measured the generator, not the server
	e2e               []metric
	layer             []metric // traced passes only
	selfMs            map[string]float64
	stageSumP50       float64 // median over completed tasks of their stage spans' sum, ms
	spans             []span
}

func (a *analysis) errorFrac() float64 { return frac(float64(a.failed), float64(a.attempted)) }

func percentile(name, unit string, d dist, q float64) metric {
	v, ok := d.quantile(q)
	return metric{name: name, unit: unit, value: v, n: len(d), short: !ok}
}

// taskTimes is one task's path, joined from the requester, the crowd and
// (traced) the spine. Zero times are points the task never reached.
type taskTimes struct {
	due, send, ack                time.Time
	result                        *resultObs // on the submitting connection
	firstRecv                     time.Time
	spineSubmit                   time.Time
	firstAssign, lastAssign       time.Time
	lastRecv, call, spineTerminal time.Time
	terminal                      event.Kind
	eq2Revoked                    bool
}

func analyze(p *pass) *analysis {
	in := p.in
	all := len(in.jobs)
	n := all - in.warm // tasks offered in the measured window
	a := &analysis{}

	l := ledger{
		subs: p.subs, results: p.results, assigns: p.assigns, completes: p.complete,
		eng: p.eng, admOn: p.admOn, admCounters: p.admCounters,
		journal: p.sp.journal, recovered: p.recovered, replayErr: p.replayErr,
	}
	for _, j := range in.jobs {
		l.ids = append(l.ids, j.task.ID)
		l.conn = append(l.conn, j.conn)
	}
	if p.tr != nil {
		l.spine = p.tr.evs
	}
	a.verdict = check(l)
	if p.tr != nil && p.tr.subDrops > 0 {
		a.verdict.violate("traced spine subscription dropped %d events", p.tr.subDrops)
	}

	tt := make([]taskTimes, all)
	codes := map[string]int{}
	admitted, submitFailed := 0, 0
	for i, j := range in.jobs {
		s := p.subs[i]
		tt[i].due, tt[i].send, tt[i].ack = p.start.Add(j.at), s.sendAt, s.ackAt
		switch {
		case s.failed != "":
			submitFailed++
		case s.code != "" && i >= in.warm:
			codes[s.code]++
		case s.admitted() && i >= in.warm:
			admitted++
		}
	}
	for c, rs := range p.results {
		for k := range rs {
			if r := &rs[k]; r.task >= 0 && in.jobs[r.task].conn == c && tt[r.task].result == nil {
				tt[r.task].result = r
			}
		}
	}
	latest := make([]time.Time, all)
	for _, o := range p.assigns {
		if o.task < 0 {
			continue
		}
		t := &tt[o.task]
		if t.firstRecv.IsZero() || o.recv.Before(t.firstRecv) {
			t.firstRecv = o.recv
		}
		if o.assignedAt.After(latest[o.task]) {
			latest[o.task], t.lastRecv = o.assignedAt, o.recv
		}
	}
	completeFailed := 0
	var crowdLag []time.Duration
	for _, c := range p.complete {
		crowdLag = append(crowdLag, c.call.Sub(c.due))
		if c.failed != "" {
			completeFailed++
		}
		if c.ok && c.task >= 0 {
			tt[c.task].call = c.call
		}
	}
	a.attempted = all + len(p.complete)
	a.failed = submitFailed + completeFailed + int(p.protoErr) + a.verdict.unresolved + len(a.verdict.violations)

	// End-to-end metrics over the measured window, every latency from the
	// task's due time. The generator's lag is judged over the whole run.
	var ack, assign, result, sendLag []time.Duration
	ontime := 0
	for i := range tt {
		t := &tt[i]
		sendLag = append(sendLag, t.send.Sub(t.due))
		if i < in.warm {
			continue
		}
		if !t.ack.IsZero() {
			ack = append(ack, t.ack.Sub(t.due))
		}
		if !t.firstRecv.IsZero() {
			assign = append(assign, t.firstRecv.Sub(t.due))
		}
		if r := t.result; r != nil && !r.expired {
			result = append(result, r.at.Sub(t.due))
			if r.met {
				ontime++
			}
		}
	}
	cpu := p.procEnd.cpu - p.procStart.cpu
	ackD, assignD, resultD := durDist(ack), durDist(assign), durDist(result)
	a.e2e = []metric{
		{name: "setup_s", unit: "s", value: median(p.setupTimes)},
		{name: "ontime_frac", unit: "1", value: frac(float64(ontime), float64(n))},
		{name: "goodput_per_s", unit: "1/s", value: float64(ontime) / p.seconds},
		percentile("submit_ack_p50_ms", "ms", ackD, 0.50),
		percentile("submit_ack_p99_ms", "ms", ackD, 0.99),
		percentile("assign_p50_ms", "ms", assignD, 0.50),
		percentile("assign_p95_ms", "ms", assignD, 0.95),
		percentile("assign_p99_ms", "ms", assignD, 0.99),
		percentile("result_p50_ms", "ms", resultD, 0.50),
		percentile("result_p95_ms", "ms", resultD, 0.95),
		percentile("result_p99_ms", "ms", resultD, 0.99),
		{name: "error_frac", unit: "1", value: a.errorFrac()},
		{name: "cpu_ms_per_task", unit: "ms", value: ms(cpu) / float64(n)},
		{name: "max_rss_mb", unit: "MiB", value: p.maxRSS},
	}
	for _, m := range a.e2e {
		if m.short {
			a.invalid = append(a.invalid, fmt.Sprintf("%s has %d samples of the %d its p99 needs", m.name, m.n, minSamples(0.99)))
		}
	}
	sendLagD, crowdLagD := durDist(sendLag), durDist(crowdLag)
	for _, lag := range []metric{
		percentile("loadgen.send_lag_p99_ms", "ms", sendLagD, 0.99),
		percentile("loadgen.crowd_lag_p99_ms", "ms", crowdLagD, 0.99),
	} {
		if lag.value > ms(lagBound) {
			a.invalid = append(a.invalid, fmt.Sprintf("%s = %.2f ms exceeds the generator bound %.0f ms", lag.name, lag.value, ms(lagBound)))
		}
	}
	if p.tr == nil {
		return a
	}

	// Traced pass: join the spine onto each task, then derive the layers.
	tr := p.tr
	var batches []event.BatchStats
	assignEvents, eq2Revokes := 0, 0
	for _, e := range tr.evs {
		if e.kind == event.KindBatch {
			if !e.at.Before(p.window) && !e.at.After(p.loadEnd) {
				batches = append(batches, e.batch)
			}
			continue
		}
		if e.task < 0 {
			continue
		}
		t := &tt[e.task]
		switch e.kind {
		case event.KindSubmit:
			t.spineSubmit = e.at
		case event.KindAssign:
			if !e.at.Before(p.window) {
				assignEvents++
			}
			if t.firstAssign.IsZero() {
				t.firstAssign = e.at
			}
			t.lastAssign = e.at
		case event.KindRevoke:
			if e.cause == taskq.CauseEq2 && e.task >= int32(in.warm) {
				eq2Revokes++
				t.eq2Revoked = true
			}
		case event.KindComplete, event.KindExpire:
			t.spineTerminal, t.terminal = e.at, e.kind
		}
	}

	a.spans = buildSpans(p, tt)
	self := selfTimes(a.spans)
	a.selfMs = map[string]float64{}
	for i, s := range a.spans {
		a.selfMs[s.layer()] += ms(self[i]) / float64(n)
	}
	var residual, stageSum []float64
	for i, s := range a.spans {
		if s.parent < 0 && s.name == "loadgen.task" && tt[s.task].result != nil && !tt[s.task].result.expired {
			residual = append(residual, ms(self[i]))
			stageSum = append(stageSum, ms(s.end.Sub(s.start)-self[i]))
		}
	}
	a.stageSumP50 = median(stageSum)
	residualMed := median(residual)
	if residualMed > ms(residualBound) || residualMed < -ms(residualBound) {
		a.verdict.violate("stage spans miss the task path: median residual %.3f ms exceeds %.1f ms", residualMed, ms(residualBound))
		a.failed++
	}

	var push, queueWait, deliver []time.Duration
	eq2Tasks, rescued := 0, 0
	for i := in.warm; i < all; i++ {
		t := &tt[i]
		if r := t.result; r != nil && !t.spineTerminal.IsZero() {
			push = append(push, r.at.Sub(t.spineTerminal))
		}
		if !t.firstAssign.IsZero() && !t.spineSubmit.IsZero() {
			queueWait = append(queueWait, t.firstAssign.Sub(t.spineSubmit))
		}
		if t.eq2Revoked {
			eq2Tasks++
			if r := t.result; r != nil && !r.expired && r.met {
				rescued++
			}
		}
	}
	for _, o := range p.assigns {
		if o.task >= int32(in.warm) {
			deliver = append(deliver, o.recv.Sub(o.assignedAt))
		}
	}

	var flushLat, fsyncLat []time.Duration
	for _, f := range tr.flushes {
		if !f.end.Before(p.window) {
			flushLat = append(flushLat, f.end.Sub(f.start))
		}
	}
	for _, f := range tr.fsyncs {
		if !f.end.Before(p.window) {
			fsyncLat = append(fsyncLat, f.end.Sub(f.start))
		}
	}
	var snap, avail, build []time.Duration
	for _, o := range tr.probes {
		snap = append(snap, o.snapEnd.Sub(o.start))
		avail = append(avail, o.availEnd.Sub(o.snapEnd))
		build = append(build, o.buildEnd.Sub(o.availEnd))
	}
	var roundTasks, roundWorkers, edges, cycles, elapsed []float64
	var proposed, pruned, considered, fillable float64
	for _, b := range batches {
		roundTasks = append(roundTasks, float64(b.Tasks))
		roundWorkers = append(roundWorkers, float64(b.Workers))
		edges = append(edges, float64(b.Edges))
		cycles = append(cycles, float64(b.Cycles))
		elapsed = append(elapsed, ms(b.Elapsed))
		proposed += float64(b.Assignments)
		pruned += float64(b.PrunedProb + b.PrunedReward)
		considered += float64(b.Edges + b.PrunedProb + b.PrunedReward)
		fillable += float64(min(b.Tasks, b.Workers))
	}
	storeRecords, unassignedHW := 0, 0
	for _, s := range p.shards {
		storeRecords += s.Unassigned + s.Assigned + s.Terminal
		unassignedHW += s.UnassignedHighWater
	}
	frames := float64(p.wireEnd.FramesWritten - p.wireStart.FramesWritten)
	flushes := float64(p.wireEnd.Flushes - p.wireStart.Flushes)
	framesRead := float64(p.wireEnd.FramesRead - p.wireStart.FramesRead)
	errorsSent := float64(p.wireEnd.ErrorsSent - p.wireStart.ErrorsSent)
	alloc := float64(p.procEnd.allocBytes - p.procStart.allocBytes)
	gcFrac := frac(p.procEnd.gcCPU-p.procStart.gcCPU, p.procEnd.totalCPU-p.procStart.totalCPU)
	records := float64(p.journal.Records - p.journalStart.Records)
	bytes := float64(p.journal.Bytes - p.journalStart.Bytes)
	fsyncs := float64(p.journal.Fsyncs - p.journalStart.Fsyncs)
	nf := float64(n)
	window := p.loadEnd.Sub(p.window).Seconds()
	matchD := newDist(elapsed)

	a.layer = []metric{
		percentile("wire.result_push_p50_ms", "ms", durDist(push), 0.50),
		percentile("wire.result_push_p99_ms", "ms", durDist(push), 0.99),
		{name: "wire.frames_per_flush", unit: "count", value: frac(frames, flushes)},
		scaled(percentile("wire.flush_p99_us", "us", durDist(flushLat), 0.99), 1e3),
		{name: "wire.errors_sent_frac", unit: "1", value: frac(errorsSent, framesRead)},
		{name: "admission.admitted_frac", unit: "1", value: frac(float64(admitted), nf)},
		{name: "admission.rejected_probability", unit: "count", value: float64(p.admCounters[1] - p.admStart[1])},
		{name: "admission.rejected_rate", unit: "count", value: float64(p.admCounters[2] - p.admStart[2])},
		{name: "admission.queue_full", unit: "count", value: float64(codes[wire.CodeQueueFull])},
		{name: "admission.shed", unit: "count", value: float64(p.eng.Shed - p.shedStart)},
		{name: "admission.useful_frac", unit: "1", value: frac(float64(ontime), float64(admitted))},
		percentile("engine.queue_wait_p50_ms", "ms", durDist(queueWait), 0.50),
		percentile("engine.queue_wait_p99_ms", "ms", durDist(queueWait), 0.99),
		percentile("engine.deliver_p99_ms", "ms", durDist(deliver), 0.99),
		{name: "engine.rounds_per_s", unit: "1/s", value: float64(len(batches)) / window},
		{name: "engine.round_tasks_mean", unit: "count", value: newDist(roundTasks).mean()},
		{name: "engine.round_workers_mean", unit: "count", value: newDist(roundWorkers).mean()},
		{name: "engine.applied_frac", unit: "1", value: frac(float64(assignEvents), proposed)},
		{name: "engine.stage_residual_ms", unit: "ms", value: residualMed, n: len(residual)},
		{name: "taskq.snapshot_ms", unit: "ms", value: median(msList(snap)), n: len(snap)},
		{name: "taskq.store_records", unit: "count", value: float64(storeRecords)},
		{name: "taskq.unassigned_hw", unit: "count", value: float64(unassignedHW)},
		{name: "profile.available_ms", unit: "ms", value: median(msList(avail)), n: len(avail)},
		{name: "schedule.build_ms", unit: "ms", value: median(msList(build)), n: len(build)},
		{name: "schedule.edges_mean", unit: "count", value: newDist(edges).mean()},
		{name: "schedule.pruned_frac", unit: "1", value: frac(pruned, considered)},
		percentile("matching.match_p50_ms", "ms", matchD, 0.50),
		percentile("matching.match_p99_ms", "ms", matchD, 0.99),
		{name: "matching.cycles_mean", unit: "count", value: newDist(cycles).mean()},
		{name: "matching.fill_frac", unit: "1", value: frac(proposed, fillable)},
		{name: "dynassign.eq2_revokes_per_ktask", unit: "count", value: 1000 * float64(eq2Revokes) / nf},
		{name: "dynassign.rescued_frac", unit: "1", value: frac(float64(rescued), float64(eq2Tasks))},
		{name: "journal.records_per_task", unit: "count", value: records / nf},
		{name: "journal.bytes_per_task", unit: "B", value: bytes / nf},
		{name: "journal.records_per_fsync", unit: "count", value: frac(records, fsyncs)},
		percentile("journal.fsync_p99_ms", "ms", durDist(fsyncLat), 0.99),
		{name: "event.published_per_task", unit: "count", value: float64(p.busEnd.Published-p.busStart.Published) / nf},
		{name: "event.dropped", unit: "count", value: float64(p.busEnd.Dropped)},
		{name: "proc.alloc_kb_per_task", unit: "KiB", value: alloc / 1024 / nf},
		{name: "proc.gc_cpu_frac", unit: "1", value: gcFrac},
		percentile("loadgen.send_lag_p99_ms", "ms", sendLagD, 0.99),
		percentile("loadgen.crowd_lag_p99_ms", "ms", crowdLagD, 0.99),
		{name: "loadgen.samples", unit: "count", value: nf},
	}
	return a
}

func scaled(m metric, k float64) metric {
	m.value *= k
	return m
}

func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// buildSpans lays each measured task's path out as contiguous stage spans under a
// root span from its due time to its terminal observation, plus the
// batch-path probe, matcher, flush and fsync spans that belong to no
// single task. Each boundary is read once, by the layer that crosses it,
// so the stages tile the root; the root's self time is the residual the
// trace did not cover.
func buildSpans(p *pass, tt []taskTimes) []span {
	var spans []span
	add := func(name string, task, parent int32, a, b time.Time) int32 {
		if a.IsZero() || b.IsZero() || b.Before(a) {
			return -1
		}
		spans = append(spans, span{name: name, task: task, parent: parent, start: a, end: b})
		return int32(len(spans) - 1)
	}
	for i := p.in.warm; i < len(tt); i++ {
		t := &tt[i]
		task := int32(i)
		end := t.ack
		if t.result != nil {
			end = t.result.at
		}
		root := add("loadgen.task", task, -1, t.due, end)
		if root < 0 {
			continue
		}
		add("loadgen.send_lag", task, root, t.due, t.send)
		if t.spineSubmit.IsZero() {
			add("wire.submit", task, root, t.send, t.ack) // refused before the store
			continue
		}
		add("wire.submit", task, root, t.send, t.spineSubmit)
		switch {
		case t.terminal == event.KindComplete:
			add("engine.queue_wait", task, root, t.spineSubmit, t.firstAssign)
			if t.lastAssign.After(t.firstAssign) {
				add("dynassign.reassign", task, root, t.firstAssign, t.lastAssign)
			}
			add("engine.deliver", task, root, t.lastAssign, t.lastRecv)
			add("crowd.exec", task, root, t.lastRecv, t.call)
			add("core.complete", task, root, t.call, t.spineTerminal)
		case t.firstAssign.IsZero():
			add("engine.queue_wait", task, root, t.spineSubmit, t.spineTerminal)
		default:
			add("engine.queue_wait", task, root, t.spineSubmit, t.firstAssign)
			add("dynassign.reassign", task, root, t.firstAssign, t.spineTerminal)
		}
		if t.result != nil {
			add("wire.result_push", task, root, t.spineTerminal, t.result.at)
		}
	}
	tr := p.tr
	for _, o := range tr.probes {
		round := add("probe.round", -1, -1, o.start, o.buildEnd)
		add("taskq.snapshot", -1, round, o.start, o.snapEnd)
		add("profile.available", -1, round, o.snapEnd, o.availEnd)
		add("schedule.build", -1, round, o.availEnd, o.buildEnd)
	}
	for _, e := range tr.evs {
		if e.kind == event.KindBatch && !e.at.Before(p.window) {
			add("matching.match", -1, -1, e.at.Add(-e.batch.Elapsed), e.at)
		}
	}
	for _, f := range tr.flushes {
		if !f.end.Before(p.window) {
			add("wire.flush", -1, -1, f.start, f.end)
		}
	}
	for _, f := range tr.fsyncs {
		if !f.end.Before(p.window) {
			add("journal.fsync", -1, -1, f.start, f.end)
		}
	}
	return spans
}
