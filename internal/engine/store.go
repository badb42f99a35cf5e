package engine

import (
	"time"

	"react/internal/clock"
	"react/internal/taskq"
)

// TaskStore is the engine's task-management state, striped across N
// taskq.Manager shards keyed by an FNV-1a hash of the task id. Point
// operations (Submit, Get, Assign, Complete, ...) touch exactly one shard,
// so completions and submissions arriving concurrently with a running batch
// contend on 1/N of the locks the old single manager forced them through.
//
// Snapshot operations (Unassigned, AssignedTasks, ExpireUnassigned) k-way
// merge the per-shard results, each already sorted in the snapshot's
// order, so every observable ordering is identical to a single-manager
// store regardless of the shard count — the property the determinism gate
// relies on.
type TaskStore struct {
	shards []*taskq.Manager
}

// NewTaskStore creates a store with n shards reading time from clk. n below
// 1 is treated as 1.
func NewTaskStore(clk clock.Clock, n int) *TaskStore {
	if n < 1 {
		n = 1
	}
	s := &TaskStore{shards: make([]*taskq.Manager, n)}
	for i := range s.shards {
		s.shards[i] = taskq.NewManager(clk)
	}
	return s
}

// Shards reports the stripe count.
func (s *TaskStore) Shards() int { return len(s.shards) }

// shard routes a task id to its manager (FNV-1a, inlined to keep the hot
// path allocation-free).
func (s *TaskStore) shard(id string) *taskq.Manager {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * prime32
	}
	return s.shards[h%uint32(len(s.shards))]
}

// Submit registers a new unassigned task on its shard.
func (s *TaskStore) Submit(t taskq.Task) error { return s.shard(t.ID).Submit(t) }

// Get returns a copy of the record for id.
func (s *TaskStore) Get(id string) (taskq.Record, bool) { return s.shard(id).Get(id) }

// Assign binds an unassigned task to a worker.
func (s *TaskStore) Assign(taskID, workerID string) error {
	return s.shard(taskID).Assign(taskID, workerID)
}

// Unassign returns an assigned task to the pool, tagging the emitted
// event with cause (a taskq.Cause* constant) and, for Eq. 2 revocations,
// the predicted completion probability.
func (s *TaskStore) Unassign(taskID, cause string, prob float64) error {
	return s.shard(taskID).Unassign(taskID, cause, prob)
}

// Complete finishes an assigned task and returns the final record.
func (s *TaskStore) Complete(taskID string) (taskq.Record, error) {
	return s.shard(taskID).Complete(taskID)
}

// MarkGraded records that the requester's feedback has been consumed.
func (s *TaskStore) MarkGraded(taskID string) error { return s.shard(taskID).MarkGraded(taskID) }

// Shed terminates an unassigned task on admission control's orders (see
// taskq.Manager.Shed), returning the final record.
func (s *TaskStore) Shed(taskID string) (taskq.Record, error) {
	return s.shard(taskID).Shed(taskID)
}

// Unassigned snapshots the tasks waiting for a worker, oldest submission
// first (ties broken by id), merged across shards.
func (s *TaskStore) Unassigned() []taskq.Task {
	return mergeShards(s, (*taskq.Manager).Unassigned, taskq.SubmissionOrder)
}

// mergeShards takes one snapshot per shard, each sorted by cmp, and merges
// them into one slice sorted by cmp, allocated once at the summed length.
// Each step picks the least head among the shards: O(n·shards), with no
// re-sort of the concatenation.
func mergeShards[T any](s *TaskStore, snap func(*taskq.Manager) []T, cmp func(a, b *T) int) []T {
	if len(s.shards) == 1 {
		return snap(s.shards[0])
	}
	parts := make([][]T, len(s.shards))
	total := 0
	for i, m := range s.shards {
		parts[i] = snap(m)
		total += len(parts[i])
	}
	out := make([]T, 0, total)
	for len(out) < total {
		best := -1
		for i, p := range parts {
			if len(p) > 0 && (best < 0 || cmp(&p[0], &parts[best][0]) < 0) {
				best = i
			}
		}
		out = append(out, parts[best][0])
		parts[best] = parts[best][1:]
	}
	return out
}

// UnassignedCount sums the per-shard backlog — the batch trigger reads this
// on every arrival.
func (s *TaskStore) UnassignedCount() int {
	n := 0
	for _, m := range s.shards {
		n += m.UnassignedCount()
	}
	return n
}

// AssignedTasks snapshots the records currently executing, sorted by task
// id across shards, for the Eq. 2 monitor.
func (s *TaskStore) AssignedTasks() []taskq.Record {
	return mergeShards(s, (*taskq.Manager).AssignedTasks, taskq.IDOrder)
}

// ExpireUnassigned expires every overdue task still waiting in the pool and
// returns their records sorted by task id.
func (s *TaskStore) ExpireUnassigned() []taskq.Record {
	return mergeShards(s, (*taskq.Manager).ExpireUnassigned, taskq.IDOrder)
}

// ExpireDue expires every overdue non-terminal task, assigned or not, and
// returns their records sorted by task id.
func (s *TaskStore) ExpireDue() []taskq.Record {
	return mergeShards(s, (*taskq.Manager).ExpireDue, taskq.IDOrder)
}

// Counts sums how many tasks are in each state across shards.
func (s *TaskStore) Counts() (unassigned, assigned, completed, expired int) {
	for _, m := range s.shards {
		u, a, c, e := m.Counts()
		unassigned += u
		assigned += a
		completed += c
		expired += e
	}
	return
}

// ShardStat is one stripe's depth snapshot for the observability plane.
type ShardStat struct {
	Shard               int // stripe index
	Unassigned          int // tasks waiting for a worker
	Assigned            int // tasks in a worker's hands
	Terminal            int // completed + expired records still retained
	UnassignedHighWater int // peak unassigned backlog ever held by this stripe
}

// ShardStats snapshots every stripe's depths and high-water marks, in
// stripe order. Each shard is locked independently, so the rows are not a
// single consistent cut — fine for monitoring, wrong for accounting.
func (s *TaskStore) ShardStats() []ShardStat {
	out := make([]ShardStat, len(s.shards))
	for i, m := range s.shards {
		u, a, c, e := m.Counts()
		out[i] = ShardStat{
			Shard:               i,
			Unassigned:          u,
			Assigned:            a,
			Terminal:            c + e,
			UnassignedHighWater: m.UnassignedHighWater(),
		}
	}
	return out
}

// Total reports how many tasks have ever been submitted.
func (s *TaskStore) Total() int {
	n := 0
	for _, m := range s.shards {
		n += m.Total()
	}
	return n
}

// Restore inserts a recovered record verbatim on its shard, bypassing
// lifecycle checks (see taskq.Manager.Restore). Journal recovery
// bulk-loads a snapshot through this before the engine starts.
func (s *TaskStore) Restore(r taskq.Record) error { return s.shard(r.Task.ID).Restore(r) }

// setSink installs fn as every shard's mutation observer. Events are
// emitted while the shard's lock is held, which gives the event spine
// its per-task total order; fn must be fast, must not block, and must not
// call back into the store. Engine.New owns the single sink (it forwards
// into the event bus); everything else consumes the bus.
func (s *TaskStore) setSink(fn func(taskq.Event)) {
	for _, m := range s.shards {
		m.SetSink(fn)
	}
}

// ForgetTerminatedBefore garbage-collects terminal records older than
// cutoff on every shard, returning how many were removed.
func (s *TaskStore) ForgetTerminatedBefore(cutoff time.Time) int {
	n := 0
	for _, m := range s.shards {
		n += m.ForgetTerminatedBefore(cutoff)
	}
	return n
}
