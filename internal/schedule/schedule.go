// Package schedule is REACT's Scheduling Component (§III.A, §IV.A). Per
// batch it (1) snapshots the unassigned tasks and available workers,
// (2) constructs the weighted bipartite graph — instantiating an edge
// (worker_i, task_j) only when the worker's fitted power-law model says
// Pr(ExecTime_ij < TimeToDeadline_ij) clears the application bound (Eq. 3),
// applying the trainee rule and the optional reward-range filter — and
// (3) hands the graph to a matching algorithm, returning the assignments.
//
// Batches trigger periodically or as soon as the number of unassigned tasks
// exceeds a bound, whichever comes first, exactly as §IV.A prescribes.
package schedule

import (
	"fmt"
	"time"

	"react/internal/bipartite"
	"react/internal/matching"
	"react/internal/profile"
	"react/internal/region"
	"react/internal/taskq"
)

// WeightFunc computes w_ij = F(worker_i, task_j) for an edge under
// consideration. Implementations must return values in [0, 1]; the matcher
// relies on non-negative weights.
type WeightFunc func(w *profile.Profile, t taskq.Task) float64

// QualityWeight is Eq. 1, the weight function the paper's experiments use:
// the worker's positive-feedback ratio in the task's category. Workers with
// no history in the category fall back to their overall accuracy, and
// with no history at all to neutral 0.5 (the trainee rule usually handles
// those before this fallback matters).
func QualityWeight(w *profile.Profile, t taskq.Task) float64 {
	if acc, ok := w.Accuracy(t.Category); ok {
		return acc
	}
	if acc, ok := w.OverallAccuracy(); ok {
		return acc
	}
	return 0.5
}

// DistanceWeight builds the location-based weight function sketched in
// §IV.A for applications like congestion detection: workers physically at
// the task's location give the most accurate answers. The weight decays
// linearly from 1 at distance zero to 0 at maxKm and beyond.
func DistanceWeight(maxKm float64) WeightFunc {
	if maxKm <= 0 {
		maxKm = 1
	}
	return func(w *profile.Profile, t taskq.Task) float64 {
		d := w.Location().DistanceKm(t.Location)
		if d >= maxKm {
			return 0
		}
		return 1 - d/maxKm
	}
}

// Term is one component of a blended weight function.
type Term struct {
	Coef float64
	Fn   WeightFunc
}

// Blend combines weight functions with fixed coefficients (e.g. 0.7·quality
// + 0.3·proximity). Coefficients should sum to at most 1 to keep results in
// [0, 1]; the blend clamps either way.
func Blend(terms ...Term) WeightFunc {
	return func(w *profile.Profile, t taskq.Task) float64 {
		var sum float64
		for _, term := range terms {
			sum += term.Coef * term.Fn(w, t)
		}
		if sum < 0 {
			return 0
		}
		if sum > 1 {
			return 1
		}
		return sum
	}
}

// Config parameterizes graph construction and batching. The zero value is
// completed by Normalize with the paper's experimental settings.
type Config struct {
	Weight        WeightFunc    // edge weight function (default QualityWeight)
	EdgeProbBound float64       // Eq. 3 lower bound for instantiating an edge (default 0.1)
	TraineeTasks  int           // z: assignments granted to new workers at max weight (default 3)
	MinHistory    int           // samples required before the model is trusted (default 3)
	MaxWeight     float64       // weight assigned to trainee edges (default 1.0)
	BatchBound    int           // run a batch once unassigned tasks exceed this (default 10)
	BatchPeriod   time.Duration // and at least this often regardless (default 5s)
	RegionID      string        // optional: only consider tasks/workers in this region
	Region        *region.Grid
	// NoPruning disables the Eq. 3 probability filter and the quality
	// weight, instantiating every (worker, task) edge at the maximum
	// weight. This models the traditional AMT-style platform of §V.C,
	// which has no worker model at all.
	NoPruning bool
}

// Normalize fills zero fields with the defaults used in §V.C.
func (c Config) Normalize() Config {
	if c.Weight == nil {
		c.Weight = QualityWeight
	}
	if c.EdgeProbBound <= 0 {
		c.EdgeProbBound = 0.1
	}
	if c.TraineeTasks <= 0 {
		c.TraineeTasks = 3
	}
	if c.MinHistory <= 0 {
		c.MinHistory = profile.DefaultMinHistory
	}
	if c.MaxWeight <= 0 {
		c.MaxWeight = 1.0
	}
	if c.BatchBound <= 0 {
		c.BatchBound = 10
	}
	if c.BatchPeriod <= 0 {
		c.BatchPeriod = 5 * time.Second
	}
	return c
}

// BuildStats describes one graph construction.
type BuildStats struct {
	Workers      int
	Tasks        int
	Edges        int
	PrunedProb   int // edges dropped by the Eq. 3 bound
	PrunedReward int // edges dropped by the reward-range filter
	Trainees     int // workers granted full edges at max weight
}

// BuildGraph constructs the weighted bipartite graph for one batch at the
// given instant. Workers must be the available snapshot, tasks the
// unassigned snapshot; the function never blocks on either component.
// A worker or task repeated in a snapshot would be a registry bug: the
// repeat is dropped with its edges rather than corrupting the batch.
func BuildGraph(cfg Config, workers []*profile.Profile, tasks []taskq.Task, now time.Time) (*bipartite.Graph, BuildStats) {
	cfg = cfg.Normalize()
	var st BuildStats
	b := bipartite.NewBuilder(len(workers), len(tasks))
	// Builder index of each snapshot position, -1 for a dropped repeat.
	wIdx := make([]int32, len(workers))
	for i, w := range workers {
		wIdx[i] = -1
		if idx, err := b.AddWorker(w.ID()); err == nil {
			wIdx[i] = idx
			st.Workers++
		}
	}
	tIdx := make([]int32, len(tasks))
	for i, t := range tasks {
		tIdx[i] = -1
		if idx, err := b.AddTask(t.ID); err == nil {
			tIdx[i] = idx
			st.Tasks++
		}
	}
	// Every edge is visited once, in increasing (worker, task) order, so
	// one reservation at the upper bound is the only edge allocation.
	b.ReserveEdges(st.Workers * st.Tasks)
	for wi, w := range workers {
		if wIdx[wi] < 0 {
			continue
		}
		trainee := w.Trainee(cfg.TraineeTasks)
		model, hasModel := w.Model(cfg.MinHistory)
		rewards := w.RewardRange()
		if trainee {
			st.Trainees++
		}
		for ti := range tasks {
			t := &tasks[ti] // no per-edge copy of the Task
			if tIdx[ti] < 0 {
				continue
			}
			if !rewards.Accepts(t.Reward) {
				st.PrunedReward++
				continue
			}
			var weight float64
			switch {
			case cfg.NoPruning:
				weight = cfg.MaxWeight
			case trainee || !hasModel:
				// Training rule (§IV.A): instantiate edges with every task
				// at the maximum weight so the profile gets built.
				weight = cfg.MaxWeight
			default:
				ttd := t.Deadline.Sub(now).Seconds()
				if p := model.ProbMeetDeadline(ttd); p < cfg.EdgeProbBound {
					st.PrunedProb++
					continue
				}
				weight = cfg.Weight(w, *t)
				if weight < 0 {
					weight = 0
				}
				if weight > 1 {
					weight = 1
				}
			}
			if err := b.AddEdgeIdx(wIdx[wi], tIdx[ti], weight); err != nil {
				return nil, st // unreachable with valid indices; fail loudly via nil
			}
			st.Edges++
		}
	}
	return b.Build(), st
}

// Trigger decides when to run a batch.
type Trigger struct {
	cfg     Config
	lastRun time.Time
}

// NewTrigger creates a trigger that considers the first batch due
// immediately.
func NewTrigger(cfg Config, now time.Time) *Trigger {
	cfg = cfg.Normalize()
	return &Trigger{cfg: cfg, lastRun: now.Add(-cfg.BatchPeriod)}
}

// Due reports whether a batch should run now: the unassigned backlog
// exceeds the bound, or a full period elapsed since the last run.
func (tr *Trigger) Due(unassigned int, now time.Time) bool {
	if unassigned <= 0 {
		return false
	}
	return unassigned > tr.cfg.BatchBound || !now.Before(tr.lastRun.Add(tr.cfg.BatchPeriod))
}

// Ran records that a batch executed at now.
func (tr *Trigger) Ran(now time.Time) { tr.lastRun = now }

// Batch runs one scheduling round: build the graph from the given
// snapshots, match it, and return task→worker assignments.
type Batch struct {
	Assignments map[string]string
	Build       BuildStats
	Match       matching.Stats
	Weight      float64
	Elapsed     time.Duration // matcher wall time, for Fig. 3/8-style accounting
}

// Run executes a batch with the provided matcher. The caller applies the
// returned assignments to the task manager and worker profiles.
func Run(cfg Config, m matching.Matcher, workers []*profile.Profile, tasks []taskq.Task, now time.Time) (Batch, error) {
	g, bs := BuildGraph(cfg, workers, tasks, now)
	if g == nil {
		return Batch{}, fmt.Errorf("schedule: graph construction failed (%d workers, %d tasks)", len(workers), len(tasks))
	}
	//lint:ignore clockdiscipline,clocktaint Elapsed reports the matcher's real wall time (Fig. 3/8 accounting), not simulated time; it never feeds a scheduling decision
	start := time.Now()
	match, ms := m.Match(g)
	//lint:ignore clockdiscipline,clocktaint see above: a real measurement by design
	elapsed := time.Since(start)
	return Batch{
		Assignments: match.Assignments(),
		Build:       bs,
		Match:       ms,
		Weight:      match.Weight(),
		Elapsed:     elapsed,
	}, nil
}
