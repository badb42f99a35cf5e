package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"react/internal/admission"
	"react/internal/core"
	"react/internal/crowd"
	"react/internal/dynassign"
	"react/internal/matching"
	"react/internal/schedule"
	"react/internal/wire"
	"react/internal/workload"
)

// compress is the time compression every live harness in this repo uses
// (reactload's default): the paper's 60–120 s deadlines become 0.6–1.2 s
// and its 1–20 s / 100–130 s crowd bands 10–200 ms / 1.0–1.3 s, which
// keeps every ratio the scheduler reasons about.
const compress = 100

// batchPoll is core's real batch-trigger poll period. It is deliberately
// NOT compressed: it is the live server's cadence, and the latency it
// imposes is one of the things this benchmark exists to measure.
const batchPoll = 200 * time.Millisecond

// warmup is load offered before the measured window opens. It carries
// every worker through REACT's training phase (its first three tasks are
// assigned at full weight and never reassigned), which a long-running
// server pays once per worker, not per task. Its tasks are checked like
// every other but not measured.
const warmup = 5 * time.Second

// crowdSeed draws every workload's crowd population (see generate).
const crowdSeed = 1

// stableRatio is the paper's stable operating point: ~80 workers per
// task per uncompressed second (750 workers at 9.375 tasks/s).
const stableRatio = 80

// spec is one workload: a crowd, an offered load, and a server
// configuration. Why each exists is recorded in BENCHMARK.json and
// DESIGN.md; the short form is on the spec itself.
type spec struct {
	name    string
	workers int
	rate    float64 // offered submits per wall second, all requesters together
	poisson bool    // Poisson arrivals; otherwise constant spacing
	// shares splits the rate across requester connections; nil sends the
	// one stream round-robin over all of them.
	shares    []float64
	retention time.Duration
	journal   bool
	admission *admission.Config
	// tightFrac of the tasks get a deadline from the tight band instead
	// of the paper's 60–120 s, so the admission probability floor binds.
	tightFrac          float64
	tightMin, tightMax time.Duration
	// history terminal records are bulk-loaded into the task store before
	// the warm-up (see prefill).
	history int
}

var specs = []spec{
	{
		// Batch rounds stay small; latency is set by the trigger cadence,
		// delivery and the result push.
		name:      "steady",
		workers:   200,
		rate:      200.0 / stableRatio * compress,
		poisson:   true,
		retention: time.Hour / compress,
	},
	{
		// The batch path (snapshot + Eq. 3 build + match) and the journal
		// dominate. The store starts with the 5e4 terminal records that
		// 50 s at this rate leave behind under a 1 h retention, so every
		// store scan walks tens of times the live set. 1e5 saturated both
		// CPUs and spread the latencies past their bounds (DESIGN.md).
		name:      "heavy",
		workers:   1000,
		rate:      1000,
		retention: time.Hour,
		journal:   true,
		history:   50000,
	},
	{
		// 10x the stable ratio with every admission gate and the shedder
		// engaged; goodput is the number that matters.
		name:    "overload",
		workers: 100,
		rate:    10 * 100.0 / stableRatio * compress,
		shares:  []float64{2.0 / 3, 1.0 / 3},
		admission: &admission.Config{
			ProbFloor:    0.5,
			MaxInflight:  2 * 100,
			ShedTarget:   500 * time.Millisecond / compress,
			ShedInterval: 200 * time.Millisecond / compress,
			// Between the two requesters' rates (833/s and 417/s), so the
			// token bucket binds on the heavier one only.
			RequesterRate: 600,
		},
		retention: time.Hour / compress,
		tightFrac: 0.2,
		tightMin:  20 * time.Millisecond,
		tightMax:  60 * time.Millisecond,
	},
}

func lookupSpec(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// serverOptions is reactd's production configuration — REACT with
// adaptive cycles, batch bound 10, Eq. 3 bound 0.1, Eq. 2 threshold 0.1
// — with only the time constants divided by the compression factor.
func (sp spec) serverOptions() core.Options {
	opts := core.Options{
		Matcher:       matching.REACT{Adaptive: true},
		MonitorPeriod: time.Second / compress,
		BatchPoll:     batchPoll,
		Retention:     sp.retention,
		Schedule: schedule.Config{
			BatchBound:    10,
			BatchPeriod:   5 * time.Second / compress,
			EdgeProbBound: 0.1,
		},
		Monitor: dynassign.Monitor{Threshold: 0.1},
	}
	if sp.admission != nil {
		a := *sp.admission
		opts.Admission = &a
	}
	return opts
}

// journalFsync is the journal's group-commit interval on the workloads
// that run one.
const journalFsync = 25 * time.Millisecond

// config is the recorded form of a workload's configuration, read back
// from the options the server is built with.
func (sp spec) config(conns int) map[string]any {
	o := sp.serverOptions()
	react, _ := o.Matcher.(matching.REACT)
	c := map[string]any{
		"workload":          sp.name,
		"workers":           sp.workers,
		"offered_per_s":     sp.rate,
		"arrivals":          map[bool]string{true: "poisson", false: "constant"}[sp.poisson],
		"requester_conns":   conns,
		"compress":          compress,
		"matcher":           o.Matcher.Name(),
		"matcher_adaptive":  react.Adaptive,
		"batch_bound":       o.Schedule.BatchBound,
		"batch_period_ms":   ms(o.Schedule.BatchPeriod),
		"batch_poll_ms":     ms(o.BatchPoll),
		"eq3_edge_bound":    o.Schedule.EdgeProbBound,
		"eq2_threshold":     o.Monitor.Threshold,
		"monitor_period_ms": ms(o.MonitorPeriod),
		"retention_s":       o.Retention.Seconds(),
		"journal":           sp.journal,
		"deadline_ms":       []float64{ms(crowd.DeadlineMin / compress), ms(crowd.DeadlineMax / compress)},
		"warmup_s":          warmup.Seconds(),
		"crowd_seed":        crowdSeed,
		"setups":            setups,
		"history_records":   sp.history,
	}
	if sp.journal {
		c["journal_fsync_interval_ms"] = ms(journalFsync)
	}
	if sp.shares != nil {
		c["requester_shares"] = sp.shares
	}
	if a := o.Admission; a != nil {
		c["admission"] = map[string]any{
			"prob_floor":       a.ProbFloor,
			"max_inflight":     a.MaxInflight,
			"shed_target_ms":   ms(a.ShedTarget),
			"shed_interval_ms": ms(a.ShedInterval),
			"requester_rate":   a.RequesterRate,
		}
		c["tight_frac"] = sp.tightFrac
		c["tight_deadline_ms"] = []float64{ms(sp.tightMin), ms(sp.tightMax)}
	}
	return c
}

// job is one scheduled submission.
type job struct {
	at       time.Duration // due time, from the start of the schedule
	conn     int
	deadline time.Duration // latency limit, from the due time
	task     wire.TaskPayload
}

// member is one synthetic crowd worker: where it registers and the
// execution times it will take, in the order it receives assignments.
type member struct {
	id       string
	lat, lon float64
	exec     []time.Duration
}

// inputs is everything the server will receive, generated from the seed
// before any clock starts.
type inputs struct {
	jobs  []job
	crowd []member
	index map[string]int32 // task id -> job index
	conns int
	warm  int // jobs[:warm] are the warm-up; the measured window follows
	// historySeed draws the records prefill loads; they are made at load
	// time, so they are not held twice.
	historySeed int64
}

// taskGenerator draws tasks with the paper's deadlines, compressed.
func taskGenerator() workload.Generator {
	return workload.Generator{
		DeadlineMin: crowd.DeadlineMin / compress,
		DeadlineMax: crowd.DeadlineMax / compress,
	}.Normalize()
}

// generate draws a workload's inputs: the warm-up followed by a measured
// window of the given length. The same spec, connection count, window and
// seed always give the same inputs.
func generate(sp spec, conns int, seconds float64, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	window := warmup + time.Duration(seconds*float64(time.Second))
	gen := taskGenerator()
	tight := gen
	tight.DeadlineMin, tight.DeadlineMax = sp.tightMin, sp.tightMax

	shares := sp.shares
	if shares == nil {
		shares = []float64{1}
	}
	var jobs []job
	epoch := time.Unix(0, 0)
	for s, share := range shares {
		var arr workload.Arrival = workload.Constant{Rate: sp.rate * share}
		if sp.poisson {
			arr = workload.Poisson{Rate: sp.rate * share}
		}
		for at := arr.Next(rng); at < window; at += arr.Next(rng) {
			g := gen
			if sp.tightFrac > 0 && rng.Float64() < sp.tightFrac {
				g = tight
			}
			t := g.Make(0, epoch, rng)
			jobs = append(jobs, job{
				at:       at,
				conn:     s % conns,
				deadline: t.Deadline.Sub(epoch),
				task: wire.TaskPayload{
					Lat: t.Location.Lat, Lon: t.Location.Lon,
					Reward: t.Reward, Category: t.Category, Description: t.Description,
				},
			})
		}
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].at < jobs[j].at })
	in := &inputs{jobs: jobs, index: make(map[string]int32, len(jobs)), conns: conns, historySeed: ^seed}
	for i := range in.jobs {
		j := &in.jobs[i]
		if sp.shares == nil {
			j.conn = i % conns
		}
		j.task.ID = fmt.Sprintf("%s-%d-%06d", sp.name, seed, i)
		in.index[j.task.ID] = int32(i)
		if j.at < warmup {
			in.warm = i + 1
		}
	}

	// The crowd itself (each worker's personal bands and location) is part
	// of the workload, drawn from a fixed seed: a fresh population per
	// seed moves the fleet's capacity, which nearly doubled the spread of
	// overload's goodput (DESIGN.md). The seed draws the arrivals, the
	// tasks and every execution time. Each worker gets enough draws that
	// three times its fair share of assignments never reuses one; past
	// that they wrap, which keeps the run deterministic.
	draws := 3*len(jobs)/sp.workers + 16
	pop := rand.New(rand.NewSource(crowdSeed))
	for i, b := range crowd.NewPopulation(sp.workers, pop) {
		loc := gen.Area.RandomPoint(pop)
		m := member{id: fmt.Sprintf("w%04d", i), lat: loc.Lat, lon: loc.Lon, exec: make([]time.Duration, draws)}
		for k := range m.exec {
			m.exec[k] = b.ExecTime(rng) / compress
		}
		in.crowd = append(in.crowd, m)
	}
	return in
}
