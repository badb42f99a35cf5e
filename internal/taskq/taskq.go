// Package taskq is REACT's Task Management Component (§III.A): the
// authoritative registry of every task submitted to a region server. It
// tracks each task's assignment state, the time elapsed since assignment,
// the remaining time to its deadline, and expiry. The Scheduling Component
// reads the unassigned set from here; the Dynamic Assignment Component
// returns tasks here when it predicts a deadline miss.
package taskq

import (
	"container/heap"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"react/internal/clock"
	"react/internal/region"
)

// Status is a task's lifecycle state.
type Status int

// Task lifecycle: submitted tasks are Unassigned until the scheduler matches
// them, may bounce between Assigned and Unassigned on reassignment, and
// terminate as Completed (result delivered) or Expired (deadline passed).
const (
	Unassigned Status = iota
	Assigned
	Completed
	Expired
)

// String names the status for logs and tables.
func (s Status) String() string {
	switch s {
	case Unassigned:
		return "unassigned"
	case Assigned:
		return "assigned"
	case Completed:
		return "completed"
	case Expired:
		return "expired"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Task is the requester-supplied description of a unit of crowd work
// (§III.B): ⟨id, latitude, longitude, deadline, reward, description⟩ plus
// the category used by the quality weight function.
type Task struct {
	ID          string
	Location    region.Point
	Deadline    time.Time // absolute instant the soft deadline expires
	Reward      float64
	Category    string
	Description string
	Submitted   time.Time
}

// Record is the manager's view of a task: the task itself plus assignment
// bookkeeping.
type Record struct {
	Task       Task
	Status     Status
	Worker     string    // current or last worker ("" if never assigned)
	AssignedAt time.Time // zero unless Status == Assigned
	FinishedAt time.Time // zero unless terminal
	Attempts   int       // number of assignments performed (≥1 after first)
	Graded     bool      // requester feedback already recorded
}

// Errors reported by the manager.
var (
	ErrDuplicateTask = errors.New("taskq: duplicate task id")
	ErrUnknownTask   = errors.New("taskq: unknown task id")
	ErrBadState      = errors.New("taskq: operation invalid in current status")
	ErrPastDeadline  = errors.New("taskq: deadline not after submission")
)

// EventKind names a state mutation reported to the manager's sink.
type EventKind uint8

// The task-lifecycle mutations a sink observes. Every kind carries the
// full post-mutation record, so a consumer can treat the stream as a
// per-task sequence of states rather than reconstructing transitions.
const (
	EvSubmit EventKind = iota + 1
	EvAssign
	EvUnassign
	EvComplete
	EvExpire
	EvForget
)

// Cause vocabulary for Event.Cause: why a mutation happened. The manager
// stamps the kinds it decides itself (submissions, completions, expiry);
// callers of Unassign supply the revocation causes, since only the
// component taking the assignment back knows why.
const (
	CauseSubmit        = "submit"         // requester submitted the task
	CauseBatch         = "batch"          // a scheduling round applied the binding
	CauseWorker        = "worker"         // the worker reported a completion
	CauseEq2           = "eq2"            // the Eq. 2 monitor predicted a deadline miss
	CauseDetach        = "detach"         // the holder's connection dropped
	CauseDeregister    = "deregister"     // the holder left the platform entirely
	CauseUndeliverable = "undeliverable"  // transport refused the fresh assignment
	CauseRecoverySweep = "recovery-sweep" // crash recovery returned an orphaned binding
	CauseDeadline      = "deadline"       // the task's deadline passed
	CauseRetention     = "retention"      // retention GC dropped a terminal record
	CauseExplicit      = "explicit"       // a direct Forget call
	CauseShed          = "shed"           // admission control shed the task under overload
)

// Event is one observed mutation: the kind plus a copy of the record as it
// stands after the mutation (for EvForget, as it stood just before removal),
// annotated with when it took effect, which worker was involved, and why.
type Event struct {
	Kind   EventKind
	Record Record
	// At is the instant the mutation took effect, read from the manager's
	// clock under the same mutex hold that applied it.
	At time.Time
	// Worker is the worker involved: the assignee on EvAssign, the holder
	// whose binding was revoked on EvUnassign (Record.Worker is already
	// cleared by then), the answerer on EvComplete, the last holder on
	// EvExpire/EvForget ("" if the task never reached a worker).
	Worker string
	// Cause is one of the Cause* constants above.
	Cause string
	// Prob is the Eq. 2 completion probability behind a CauseEq2
	// revocation (0 otherwise).
	Prob float64
}

// Manager is the Task Management Component. It is safe for concurrent use.
//
// Besides the id-keyed registry it keeps one index per status, updated by
// every mutation under the same mutex, so the hot reads (the Eq. 2 sweep,
// the batch snapshot, expiry and retention) cost O(live) rather than
// O(retained): a long retention window no longer taxes them.
type Manager struct {
	clk        clock.Clock
	mu         sync.Mutex
	records    map[string]*Record
	unassigned map[string]*Record
	assigned   map[string]*Record
	// terminal holds every terminal record, earliest FinishedAt first.
	// Forget leaves its entry behind; retention drops such stale entries
	// as they surface (an entry is live only while records maps its id to
	// the same pointer), and Forget compacts the heap once they dominate.
	terminal terminalHeap
	stale    int // entries in terminal that Forget already removed
	counts   [4]int
	// unassignedHW is the peak unassigned backlog ever observed — the
	// quantity that reveals batch-trigger starvation or matcher collapse
	// on a dashboard long after the spike itself has drained.
	unassignedHW int
	// sink, when set, observes every lifecycle mutation. It is invoked
	// while m.mu is held, which is what gives a write-ahead log its
	// per-task total order: no second mutation of the same task can start
	// until the sink has sequenced the first. Implementations must be
	// fast, must not block, and must not call back into the manager.
	sink func(Event)
}

// NewManager creates a manager reading time from clk.
func NewManager(clk clock.Clock) *Manager {
	return &Manager{
		clk:        clk,
		records:    make(map[string]*Record),
		unassigned: make(map[string]*Record),
		assigned:   make(map[string]*Record),
	}
}

// SetSink installs the mutation observer (see Event). It must be set
// before traffic: the manager does not synchronize sink replacement with
// in-flight operations beyond its own mutex.
func (m *Manager) SetSink(fn func(Event)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sink = fn
}

// emit reports a mutation to the sink. Callers hold m.mu.
func (m *Manager) emit(kind EventKind, r *Record, at time.Time, worker, cause string, prob float64) {
	if m.sink != nil {
		m.sink(Event{Kind: kind, Record: *r, At: at, Worker: worker, Cause: cause, Prob: prob})
	}
}

// Restore inserts a record verbatim — status, worker, timestamps, attempt
// and grading state — as recovery bulk-loads a journal snapshot into a
// fresh manager. It bypasses the lifecycle checks Submit enforces (a
// restored record may already be terminal) and emits no sink event: the
// journal already holds this state.
func (m *Manager) Restore(r Record) error {
	if r.Task.ID == "" {
		return fmt.Errorf("%w: restore with empty id", ErrUnknownTask)
	}
	if r.Status < Unassigned || r.Status > Expired {
		return fmt.Errorf("%w: restore %q with status %d", ErrBadState, r.Task.ID, int(r.Status))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.records[r.Task.ID]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateTask, r.Task.ID)
	}
	rec := r
	m.records[r.Task.ID] = &rec
	m.index(&rec)
	return nil
}

// Submit registers a new unassigned task. The task's Submitted field is
// stamped with the current instant; its deadline must lie in the future.
func (m *Manager) Submit(t Task) error {
	now := m.clk.Now()
	if !t.Deadline.After(now) {
		return fmt.Errorf("%w: task %q deadline %v at %v", ErrPastDeadline, t.ID, t.Deadline, now)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.records[t.ID]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateTask, t.ID)
	}
	t.Submitted = now
	r := &Record{Task: t, Status: Unassigned}
	m.records[t.ID] = r
	m.index(r)
	m.emit(EvSubmit, r, now, "", CauseSubmit, 0)
	return nil
}

// Get returns a copy of the record for id.
func (m *Manager) Get(id string) (Record, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.records[id]
	if !ok {
		return Record{}, false
	}
	return *r, true
}

// Unassigned snapshots the tasks currently waiting for a worker, oldest
// submission first (stable order keeps batch construction deterministic).
func (m *Manager) Unassigned() []Task {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := sortedRecords(m.unassigned, func(a, b *Record) int { return SubmissionOrder(&a.Task, &b.Task) })
	out := make([]Task, len(rs))
	for i, r := range rs {
		out[i] = r.Task
	}
	return out
}

// SubmissionOrder orders tasks oldest submission first, ties broken by id:
// the order of every Unassigned snapshot.
func SubmissionOrder(a, b *Task) int {
	if c := a.Submitted.Compare(b.Submitted); c != 0 {
		return c
	}
	return strings.Compare(a.ID, b.ID)
}

// IDOrder orders records by task id: the order of AssignedTasks and of the
// records the expiry calls return.
func IDOrder(a, b *Record) int { return strings.Compare(a.Task.ID, b.Task.ID) }

// sortedRecords returns the records of one status index sorted by cmp.
// Sorting pointers rather than the records themselves keeps the swaps
// word-sized.
func sortedRecords(idx map[string]*Record, cmp func(a, b *Record) int) []*Record {
	rs := make([]*Record, 0, len(idx))
	for _, r := range idx {
		rs = append(rs, r)
	}
	slices.SortFunc(rs, cmp)
	return rs
}

// UnassignedCount reports how many tasks await assignment — the batch
// trigger reads this every arrival.
func (m *Manager) UnassignedCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts[Unassigned]
}

// Assign binds an unassigned task to a worker, stamping AssignedAt.
func (m *Manager) Assign(taskID, workerID string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.records[taskID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTask, taskID)
	}
	if r.Status != Unassigned {
		return fmt.Errorf("%w: assign %q while %v", ErrBadState, taskID, r.Status)
	}
	m.transition(r, Assigned)
	r.Worker = workerID
	r.AssignedAt = m.clk.Now()
	r.Attempts++
	m.emit(EvAssign, r, r.AssignedAt, workerID, CauseBatch, 0)
	return nil
}

// Unassign returns an assigned task to the pool (worker abandoned it, or
// the Dynamic Assignment Component predicted a miss). The attempt count is
// preserved so profiles of flaky workers can be penalized by callers.
// cause says which component took the assignment back (one of the Cause*
// constants); prob is the Eq. 2 completion probability for CauseEq2
// revocations (0 otherwise). Both are carried on the emitted event.
func (m *Manager) Unassign(taskID, cause string, prob float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.records[taskID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTask, taskID)
	}
	if r.Status != Assigned {
		return fmt.Errorf("%w: unassign %q while %v", ErrBadState, taskID, r.Status)
	}
	worker := r.Worker
	m.transition(r, Unassigned)
	r.Worker = ""
	r.AssignedAt = time.Time{}
	m.emit(EvUnassign, r, m.clk.Now(), worker, cause, prob)
	return nil
}

// Complete finishes an assigned task and returns the final record. The
// caller decides whether the completion beat the deadline via MetDeadline.
func (m *Manager) Complete(taskID string) (Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.records[taskID]
	if !ok {
		return Record{}, fmt.Errorf("%w: %q", ErrUnknownTask, taskID)
	}
	if r.Status != Assigned {
		return Record{}, fmt.Errorf("%w: complete %q while %v", ErrBadState, taskID, r.Status)
	}
	m.finish(r, Completed, m.clk.Now())
	m.emit(EvComplete, r, r.FinishedAt, r.Worker, CauseWorker, 0)
	return *r, nil
}

// ExpireDue transitions every non-terminal task whose deadline has passed
// to Expired and returns their records. REACT treats deadlines as soft, so
// an expired-while-assigned task is simply recorded as missed; the worker's
// eventual answer is discarded.
func (m *Manager) ExpireDue() []Record {
	return m.expire(true)
}

// ExpireUnassigned is ExpireDue restricted to tasks still waiting in the
// pool. The paper's evaluation uses this policy: a task already in a
// worker's hands runs to (possibly late) completion and is merely *counted*
// as missed, while a task nobody picked up by its deadline leaves the
// repository — the fate of the Greedy approach's queued tasks in §V.C.
func (m *Manager) ExpireUnassigned() []Record {
	return m.expire(false)
}

func (m *Manager) expire(includeAssigned bool) []Record {
	now := m.clk.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	var due []*Record
	collect := func(idx map[string]*Record) {
		for _, r := range idx {
			if !r.Task.Deadline.After(now) {
				due = append(due, r)
			}
		}
	}
	collect(m.unassigned)
	if includeAssigned {
		collect(m.assigned)
	}
	// Expire in id order, so the sink sees the same sequence on every run.
	slices.SortFunc(due, IDOrder)
	out := make([]Record, len(due))
	for i, r := range due {
		m.finish(r, Expired, now)
		m.emit(EvExpire, r, now, r.Worker, CauseDeadline, 0)
		out[i] = *r
	}
	return out
}

// Shed terminates an unassigned task before its deadline because admission
// control decided the pool can no longer plausibly serve it. The record
// lands in the same terminal state as a deadline expiry (Expired — the
// requester-visible outcome is identical: no answer arrived) but the
// emitted event carries CauseShed, so the spine, journal, and any tail
// watcher can attribute the loss to overload protection rather than the
// clock. Only unassigned tasks can be shed; a task already in a worker's
// hands runs to completion.
func (m *Manager) Shed(taskID string) (Record, error) {
	now := m.clk.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.records[taskID]
	if !ok {
		return Record{}, fmt.Errorf("%w: %q", ErrUnknownTask, taskID)
	}
	if r.Status != Unassigned {
		return Record{}, fmt.Errorf("%w: shed %q while %v", ErrBadState, taskID, r.Status)
	}
	m.finish(r, Expired, now)
	m.emit(EvExpire, r, now, r.Worker, CauseShed, 0)
	return *r, nil
}

// RemainingTime reports the time from now until the task's deadline
// (negative once overdue).
func (m *Manager) RemainingTime(taskID string) (time.Duration, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.records[taskID]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownTask, taskID)
	}
	return r.Task.Deadline.Sub(m.clk.Now()), nil
}

// Elapsed reports t_ij, the time since the task was assigned.
func (m *Manager) Elapsed(taskID string) (time.Duration, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.records[taskID]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownTask, taskID)
	}
	if r.Status != Assigned {
		return 0, fmt.Errorf("%w: elapsed of %q while %v", ErrBadState, taskID, r.Status)
	}
	return m.clk.Now().Sub(r.AssignedAt), nil
}

// AssignedTasks snapshots the records currently executing, for the dynamic
// assignment monitor.
func (m *Manager) AssignedTasks() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := sortedRecords(m.assigned, IDOrder)
	out := make([]Record, len(rs))
	for i, r := range rs {
		out[i] = *r
	}
	return out
}

// Counts reports how many tasks are in each state.
func (m *Manager) Counts() (unassigned, assigned, completed, expired int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts[Unassigned], m.counts[Assigned], m.counts[Completed], m.counts[Expired]
}

// Total reports how many tasks have ever been submitted.
func (m *Manager) Total() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.records)
}

// Forget drops a terminal task from the registry, bounding memory in
// long-running deployments. Non-terminal tasks cannot be forgotten.
func (m *Manager) Forget(taskID string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.records[taskID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTask, taskID)
	}
	if r.Status != Completed && r.Status != Expired {
		return fmt.Errorf("%w: forget %q while %v", ErrBadState, taskID, r.Status)
	}
	m.unindex(r)
	delete(m.records, taskID)
	m.stale++
	if m.stale > len(m.terminal)/2 {
		m.terminal = slices.DeleteFunc(m.terminal, func(e *Record) bool { return m.records[e.Task.ID] != e })
		heap.Init(&m.terminal)
		m.stale = 0
	}
	m.emit(EvForget, r, m.clk.Now(), r.Worker, CauseExplicit, 0)
	return nil
}

// MarkGraded records that the requester's feedback for a completed task has
// been consumed, exactly once: a second call fails, protecting the Eq. 1
// accuracy counters from double grading.
func (m *Manager) MarkGraded(taskID string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.records[taskID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTask, taskID)
	}
	if r.Status != Completed {
		return fmt.Errorf("%w: grade %q while %v", ErrBadState, taskID, r.Status)
	}
	if r.Graded {
		return fmt.Errorf("%w: %q already graded", ErrBadState, taskID)
	}
	r.Graded = true
	return nil
}

// ForgetTerminatedBefore drops every completed or expired task whose
// terminal instant precedes cutoff, returning how many were removed. A
// long-running server calls this periodically to bound registry memory;
// REACT's own components never read terminal records after the requester
// has been notified. Records leave oldest first, ties by id, so the sink
// sees the same sequence on every run; the cost is O(removed · log n).
func (m *Manager) ForgetTerminatedBefore(cutoff time.Time) int {
	now := m.clk.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	removed := 0
	for len(m.terminal) > 0 && m.terminal[0].FinishedAt.Before(cutoff) {
		r := heap.Pop(&m.terminal).(*Record)
		if m.records[r.Task.ID] != r {
			m.stale--
			continue
		}
		m.unindex(r)
		delete(m.records, r.Task.ID)
		m.emit(EvForget, r, now, r.Worker, CauseRetention, 0)
		removed++
	}
	return removed
}

// transition moves a live record to another non-terminal status.
func (m *Manager) transition(r *Record, to Status) {
	m.unindex(r)
	r.Status = to
	m.index(r)
}

// finish moves a live record to a terminal status at instant at.
func (m *Manager) finish(r *Record, to Status, at time.Time) {
	m.unindex(r)
	r.Status = to
	r.FinishedAt = at
	m.index(r)
}

// index counts r under its status and files it in that status's index.
// Callers hold m.mu; a terminal r must already carry its FinishedAt.
func (m *Manager) index(r *Record) {
	m.counts[r.Status]++
	switch r.Status {
	case Unassigned:
		m.unassigned[r.Task.ID] = r
		m.unassignedHW = max(m.unassignedHW, m.counts[Unassigned])
	case Assigned:
		m.assigned[r.Task.ID] = r
	default:
		heap.Push(&m.terminal, r)
	}
}

// unindex reverses index, except that a terminal record's heap entry is
// left for retention or compaction to drop. Callers hold m.mu.
func (m *Manager) unindex(r *Record) {
	m.counts[r.Status]--
	switch r.Status {
	case Unassigned:
		delete(m.unassigned, r.Task.ID)
	case Assigned:
		delete(m.assigned, r.Task.ID)
	}
}

// terminalHeap is a container/heap of terminal records ordered by
// (FinishedAt, id).
type terminalHeap []*Record

func (h terminalHeap) Len() int { return len(h) }
func (h terminalHeap) Less(i, j int) bool {
	if c := h[i].FinishedAt.Compare(h[j].FinishedAt); c != 0 {
		return c < 0
	}
	return h[i].Task.ID < h[j].Task.ID
}
func (h terminalHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *terminalHeap) Push(x any)   { *h = append(*h, x.(*Record)) }
func (h *terminalHeap) Pop() any {
	old := *h
	r := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return r
}

// UnassignedHighWater reports the peak unassigned backlog this manager has
// ever held (submissions plus Eq. 2 / detach returns to the pool).
func (m *Manager) UnassignedHighWater() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.unassignedHW
}

// MetDeadline reports whether a completed record finished at or before its
// deadline.
func (r Record) MetDeadline() bool {
	return r.Status == Completed && !r.FinishedAt.After(r.Task.Deadline)
}

// ExecTime is ExecTime_ij: assignment to completion, 0 for non-terminal or
// never-assigned records.
func (r Record) ExecTime() time.Duration {
	if r.FinishedAt.IsZero() || r.AssignedAt.IsZero() {
		return 0
	}
	return r.FinishedAt.Sub(r.AssignedAt)
}

// TotalTime is the requester-visible latency: submission to completion.
func (r Record) TotalTime() time.Duration {
	if r.FinishedAt.IsZero() {
		return 0
	}
	return r.FinishedAt.Sub(r.Task.Submitted)
}
