package taskq

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"react/internal/clock"
	"react/internal/region"
)

func newTestManager() (*Manager, *clock.Virtual) {
	clk := clock.NewVirtual(clock.Epoch)
	return NewManager(clk), clk
}

func testTask(id string, deadline time.Duration) Task {
	return Task{
		ID:          id,
		Location:    region.Point{Lat: 37.98, Lon: 23.73},
		Deadline:    clock.Epoch.Add(deadline),
		Reward:      0.05,
		Category:    "traffic",
		Description: "Is road A congested?",
	}
}

func TestSubmitAndCounts(t *testing.T) {
	m, _ := newTestManager()
	if err := m.Submit(testTask("t1", 90*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(testTask("t2", 60*time.Second)); err != nil {
		t.Fatal(err)
	}
	u, a, c, e := m.Counts()
	if u != 2 || a != 0 || c != 0 || e != 0 {
		t.Fatalf("counts = %d/%d/%d/%d", u, a, c, e)
	}
	if m.Total() != 2 {
		t.Fatalf("Total = %d", m.Total())
	}
}

func TestSubmitRejectsDuplicateAndPastDeadline(t *testing.T) {
	m, clk := newTestManager()
	if err := m.Submit(testTask("t1", time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(testTask("t1", time.Minute)); !errors.Is(err, ErrDuplicateTask) {
		t.Fatalf("dup err = %v", err)
	}
	clk.Advance(2 * time.Minute)
	if err := m.Submit(testTask("t2", time.Minute)); !errors.Is(err, ErrPastDeadline) {
		t.Fatalf("past deadline err = %v", err)
	}
}

func TestSubmitStampsSubmittedTime(t *testing.T) {
	m, clk := newTestManager()
	clk.Advance(10 * time.Second)
	task := testTask("t1", time.Minute)
	task.Submitted = clock.Epoch.Add(-time.Hour) // caller-provided junk is overwritten
	if err := m.Submit(task); err != nil {
		t.Fatal(err)
	}
	r, _ := m.Get("t1")
	if !r.Task.Submitted.Equal(clk.Now()) {
		t.Fatalf("Submitted = %v, want %v", r.Task.Submitted, clk.Now())
	}
}

func TestAssignCompleteLifecycle(t *testing.T) {
	m, clk := newTestManager()
	m.Submit(testTask("t1", 90*time.Second))
	if err := m.Assign("t1", "alice"); err != nil {
		t.Fatal(err)
	}
	r, _ := m.Get("t1")
	if r.Status != Assigned || r.Worker != "alice" || r.Attempts != 1 {
		t.Fatalf("record after assign: %+v", r)
	}
	clk.Advance(15 * time.Second)
	if el, err := m.Elapsed("t1"); err != nil || el != 15*time.Second {
		t.Fatalf("Elapsed = %v, %v", el, err)
	}
	rec, err := m.Complete("t1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != Completed || !rec.MetDeadline() {
		t.Fatalf("completed record: %+v", rec)
	}
	if rec.ExecTime() != 15*time.Second {
		t.Fatalf("ExecTime = %v", rec.ExecTime())
	}
	if rec.TotalTime() != 15*time.Second {
		t.Fatalf("TotalTime = %v", rec.TotalTime())
	}
}

func TestCompleteAfterDeadlineMisses(t *testing.T) {
	m, clk := newTestManager()
	m.Submit(testTask("t1", 30*time.Second))
	m.Assign("t1", "bob")
	clk.Advance(45 * time.Second)
	rec, err := m.Complete("t1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.MetDeadline() {
		t.Fatal("late completion reported as meeting deadline")
	}
}

func TestStateMachineRejections(t *testing.T) {
	m, _ := newTestManager()
	m.Submit(testTask("t1", time.Minute))
	if err := m.Unassign("t1", CauseWorker, 0); !errors.Is(err, ErrBadState) {
		t.Fatalf("unassign unassigned err = %v", err)
	}
	if _, err := m.Complete("t1"); !errors.Is(err, ErrBadState) {
		t.Fatalf("complete unassigned err = %v", err)
	}
	if err := m.Assign("nope", "w"); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("assign unknown err = %v", err)
	}
	m.Assign("t1", "w")
	if err := m.Assign("t1", "w2"); !errors.Is(err, ErrBadState) {
		t.Fatalf("double assign err = %v", err)
	}
	m.Complete("t1")
	if err := m.Unassign("t1", CauseWorker, 0); !errors.Is(err, ErrBadState) {
		t.Fatalf("unassign completed err = %v", err)
	}
	if _, err := m.Elapsed("t1"); !errors.Is(err, ErrBadState) {
		t.Fatalf("elapsed of completed err = %v", err)
	}
}

func TestReassignmentKeepsAttempts(t *testing.T) {
	m, clk := newTestManager()
	m.Submit(testTask("t1", 5*time.Minute))
	m.Assign("t1", "w1")
	clk.Advance(10 * time.Second)
	if err := m.Unassign("t1", CauseWorker, 0); err != nil {
		t.Fatal(err)
	}
	r, _ := m.Get("t1")
	if r.Status != Unassigned || r.Worker != "" || r.Attempts != 1 {
		t.Fatalf("after unassign: %+v", r)
	}
	m.Assign("t1", "w2")
	r, _ = m.Get("t1")
	if r.Attempts != 2 || r.Worker != "w2" {
		t.Fatalf("after reassign: %+v", r)
	}
	// AssignedAt reflects the latest assignment only.
	if el, _ := m.Elapsed("t1"); el != 0 {
		t.Fatalf("Elapsed after fresh reassign = %v", el)
	}
}

func TestUnassignedSnapshotOrdering(t *testing.T) {
	m, clk := newTestManager()
	m.Submit(testTask("b", 10*time.Minute))
	clk.Advance(time.Second)
	m.Submit(testTask("a", 10*time.Minute))
	clk.Advance(time.Second)
	m.Submit(testTask("c", 10*time.Minute))
	got := m.Unassigned()
	if len(got) != 3 || got[0].ID != "b" || got[1].ID != "a" || got[2].ID != "c" {
		t.Fatalf("order = %v", []string{got[0].ID, got[1].ID, got[2].ID})
	}
	m.Assign("a", "w")
	if m.UnassignedCount() != 2 {
		t.Fatalf("UnassignedCount = %d", m.UnassignedCount())
	}
}

func TestExpireDue(t *testing.T) {
	m, clk := newTestManager()
	m.Submit(testTask("short", 30*time.Second))
	m.Submit(testTask("long", 10*time.Minute))
	m.Submit(testTask("running", 40*time.Second))
	m.Assign("running", "w")
	clk.Advance(time.Minute)
	expired := m.ExpireDue()
	if len(expired) != 2 {
		t.Fatalf("expired %d tasks, want 2", len(expired))
	}
	ids := []string{expired[0].Task.ID, expired[1].Task.ID}
	if ids[0] != "running" || ids[1] != "short" {
		t.Fatalf("expired ids = %v", ids)
	}
	for _, r := range expired {
		if r.Status != Expired || r.MetDeadline() {
			t.Fatalf("expired record: %+v", r)
		}
	}
	// Idempotent: second call finds nothing new.
	if again := m.ExpireDue(); len(again) != 0 {
		t.Fatalf("repeat ExpireDue returned %d", len(again))
	}
	u, a, c, e := m.Counts()
	if u != 1 || a != 0 || c != 0 || e != 2 {
		t.Fatalf("counts = %d/%d/%d/%d", u, a, c, e)
	}
}

func TestRemainingTime(t *testing.T) {
	m, clk := newTestManager()
	m.Submit(testTask("t1", 90*time.Second))
	clk.Advance(30 * time.Second)
	if rem, err := m.RemainingTime("t1"); err != nil || rem != 60*time.Second {
		t.Fatalf("RemainingTime = %v, %v", rem, err)
	}
	clk.Advance(2 * time.Minute)
	if rem, _ := m.RemainingTime("t1"); rem >= 0 {
		t.Fatalf("overdue RemainingTime = %v, want negative", rem)
	}
	if _, err := m.RemainingTime("ghost"); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("unknown task err = %v", err)
	}
}

func TestAssignedTasksSnapshot(t *testing.T) {
	m, _ := newTestManager()
	for i := 0; i < 5; i++ {
		m.Submit(testTask(fmt.Sprintf("t%d", i), time.Minute))
	}
	m.Assign("t1", "w1")
	m.Assign("t3", "w3")
	got := m.AssignedTasks()
	if len(got) != 2 || got[0].Task.ID != "t1" || got[1].Task.ID != "t3" {
		t.Fatalf("AssignedTasks = %+v", got)
	}
}

func TestForget(t *testing.T) {
	m, _ := newTestManager()
	m.Submit(testTask("t1", time.Minute))
	if err := m.Forget("t1"); !errors.Is(err, ErrBadState) {
		t.Fatalf("forget active task err = %v", err)
	}
	m.Assign("t1", "w")
	m.Complete("t1")
	if err := m.Forget("t1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get("t1"); ok {
		t.Fatal("forgotten task still present")
	}
	if m.Total() != 0 {
		t.Fatalf("Total = %d", m.Total())
	}
	_, _, c, _ := m.Counts()
	if c != 0 {
		t.Fatalf("completed count = %d after forget", c)
	}
	if err := m.Forget("t1"); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("double forget err = %v", err)
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Unassigned: "unassigned", Assigned: "assigned",
		Completed: "completed", Expired: "expired", Status(9): "status(9)",
	} {
		if got := s.String(); got != want {
			t.Errorf("Status(%d).String() = %q", int(s), got)
		}
	}
}

func TestConcurrentSubmitAssign(t *testing.T) {
	m, _ := newTestManager()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("g%d-t%d", g, i)
				if err := m.Submit(testTask(id, time.Hour)); err != nil {
					t.Error(err)
					return
				}
				if err := m.Assign(id, "w"); err != nil {
					t.Error(err)
					return
				}
				if _, err := m.Complete(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	u, a, c, e := m.Counts()
	if u != 0 || a != 0 || c != 800 || e != 0 {
		t.Fatalf("counts = %d/%d/%d/%d", u, a, c, e)
	}
}

func TestRecordTimesZeroForNonTerminal(t *testing.T) {
	m, _ := newTestManager()
	m.Submit(testTask("t1", time.Minute))
	r, _ := m.Get("t1")
	if r.ExecTime() != 0 || r.TotalTime() != 0 {
		t.Fatalf("non-terminal times = %v/%v", r.ExecTime(), r.TotalTime())
	}
}

func TestExpireUnassignedLeavesAssignedRunning(t *testing.T) {
	m, clk := newTestManager()
	m.Submit(testTask("queued", 30*time.Second))
	m.Submit(testTask("running", 30*time.Second))
	m.Assign("running", "w")
	clk.Advance(time.Minute)
	expired := m.ExpireUnassigned()
	if len(expired) != 1 || expired[0].Task.ID != "queued" {
		t.Fatalf("expired = %+v", expired)
	}
	// The assigned task is still running and completes late.
	rec, err := m.Complete("running")
	if err != nil {
		t.Fatal(err)
	}
	if rec.MetDeadline() {
		t.Fatal("late completion met deadline")
	}
	u, a, c, e := m.Counts()
	if u != 0 || a != 0 || c != 1 || e != 1 {
		t.Fatalf("counts = %d/%d/%d/%d", u, a, c, e)
	}
}

func TestForgetTerminatedBefore(t *testing.T) {
	m, clk := newTestManager()
	// old: completed at t+10s. recent: completed at t+70s. live: assigned.
	m.Submit(testTask("old", 10*time.Minute))
	m.Assign("old", "w")
	clk.Advance(10 * time.Second)
	m.Complete("old")
	m.Submit(testTask("recent", 10*time.Minute))
	m.Assign("recent", "w")
	clk.Advance(time.Minute)
	m.Complete("recent")
	m.Submit(testTask("live", 10*time.Minute))
	m.Assign("live", "w")

	cutoff := clock.Epoch.Add(30 * time.Second)
	if got := m.ForgetTerminatedBefore(cutoff); got != 1 {
		t.Fatalf("removed %d, want 1", got)
	}
	if _, ok := m.Get("old"); ok {
		t.Fatal("old record survived GC")
	}
	if _, ok := m.Get("recent"); !ok {
		t.Fatal("recent record lost")
	}
	if _, ok := m.Get("live"); !ok {
		t.Fatal("live record lost")
	}
	_, a, c, _ := m.Counts()
	if a != 1 || c != 1 {
		t.Fatalf("counts after GC: assigned=%d completed=%d", a, c)
	}
	// Idempotent.
	if got := m.ForgetTerminatedBefore(cutoff); got != 0 {
		t.Fatalf("second GC removed %d", got)
	}
}

// Property: any sequence of operations keeps the per-status counts equal to
// a full recount, and status transitions stay legal.
func TestQuickCountsStayConsistent(t *testing.T) {
	f := func(ops []uint8) bool {
		clk := clock.NewVirtual(clock.Epoch)
		m := NewManager(clk)
		next := 0
		ids := []string{}
		for _, op := range ops {
			switch op % 6 {
			case 0:
				id := fmt.Sprintf("t%d", next)
				next++
				if m.Submit(Task{ID: id, Deadline: clk.Now().Add(time.Minute)}) == nil {
					ids = append(ids, id)
				}
			case 1:
				if len(ids) > 0 {
					m.Assign(ids[int(op)%len(ids)], "w")
				}
			case 2:
				if len(ids) > 0 {
					m.Unassign(ids[int(op)%len(ids)], CauseWorker, 0)
				}
			case 3:
				if len(ids) > 0 {
					m.Complete(ids[int(op)%len(ids)])
				}
			case 4:
				clk.Advance(time.Duration(op) * time.Second)
				m.ExpireUnassigned()
			case 5:
				m.ExpireDue()
			}
		}
		u, a, c, e := m.Counts()
		var ru, ra, rc, re int
		for _, id := range ids {
			rec, ok := m.Get(id)
			if !ok {
				return false
			}
			switch rec.Status {
			case Unassigned:
				ru++
			case Assigned:
				ra++
			case Completed:
				rc++
			case Expired:
				re++
			}
		}
		return u == ru && a == ra && c == rc && e == re && m.Total() == len(ids)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(71))}); err != nil {
		t.Fatal(err)
	}
}

func TestMarkGradedOnce(t *testing.T) {
	m, _ := newTestManager()
	m.Submit(testTask("t1", time.Minute))
	if err := m.MarkGraded("t1"); !errors.Is(err, ErrBadState) {
		t.Fatalf("grade before completion err = %v", err)
	}
	m.Assign("t1", "w")
	m.Complete("t1")
	if err := m.MarkGraded("t1"); err != nil {
		t.Fatal(err)
	}
	if err := m.MarkGraded("t1"); !errors.Is(err, ErrBadState) {
		t.Fatalf("double grade err = %v", err)
	}
	if err := m.MarkGraded("ghost"); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("unknown grade err = %v", err)
	}
	r, _ := m.Get("t1")
	if !r.Graded {
		t.Fatal("record not marked graded")
	}
}

func TestUnassignedHighWater(t *testing.T) {
	m, _ := newTestManager()
	if hw := m.UnassignedHighWater(); hw != 0 {
		t.Fatalf("fresh manager high-water = %d, want 0", hw)
	}
	for i := 0; i < 3; i++ {
		if err := m.Submit(testTask(fmt.Sprintf("t%d", i), 90*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if hw := m.UnassignedHighWater(); hw != 3 {
		t.Fatalf("high-water after 3 submissions = %d, want 3", hw)
	}
	// Draining the backlog must not lower the mark.
	for i := 0; i < 3; i++ {
		if err := m.Assign(fmt.Sprintf("t%d", i), "w1"); err != nil {
			t.Fatal(err)
		}
	}
	if hw := m.UnassignedHighWater(); hw != 3 {
		t.Fatalf("high-water after drain = %d, want 3", hw)
	}
	// A return to the pool counts toward a new peak: 2 in pool < 3, then
	// submissions push past the old mark.
	if err := m.Unassign("t0", CauseWorker, 0); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 6; i++ {
		if err := m.Submit(testTask(fmt.Sprintf("t%d", i), 90*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if hw := m.UnassignedHighWater(); hw != 4 {
		t.Fatalf("high-water after refill = %d, want 4", hw)
	}
}

// drive applies a seeded random sequence of every mutating operation to m,
// calling check after each one. The id space is small, so Forget followed
// by a re-Submit of the same id recurs, and Restore files terminal records
// whose FinishedAt lies out of order with the ones already retained.
func drive(t *testing.T, seed int64, m *Manager, clk *clock.Virtual, check func(op string)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < 400; step++ {
		id := fmt.Sprintf("t%d", rng.Intn(16))
		var op string
		switch rng.Intn(13) {
		case 0, 1:
			op = "submit"
			m.Submit(testTask(id, clk.Now().Sub(clock.Epoch)+time.Duration(1+rng.Intn(40))*time.Second))
		case 2:
			op = "assign"
			m.Assign(id, fmt.Sprintf("w%d", rng.Intn(4)))
		case 3:
			op = "unassign"
			m.Unassign(id, CauseEq2, 0.05)
		case 4:
			op = "complete"
			m.Complete(id)
		case 5:
			op = "shed"
			m.Shed(id)
		case 6:
			op = "expire-due"
			m.ExpireDue()
		case 7:
			op = "expire-unassigned"
			m.ExpireUnassigned()
		case 8:
			op = "forget"
			m.Forget(id)
		case 9:
			op = "forget-before"
			m.ForgetTerminatedBefore(clk.Now().Add(-time.Duration(rng.Intn(30)) * time.Second))
		case 10:
			op = "grade"
			m.MarkGraded(id)
		case 11:
			op = "restore"
			status := Status(rng.Intn(4))
			r := Record{Task: testTask(id, clk.Now().Sub(clock.Epoch)+time.Minute), Status: status}
			r.Task.Submitted = clk.Now().Add(-time.Duration(rng.Intn(30)) * time.Second)
			if status == Assigned {
				r.Worker, r.AssignedAt, r.Attempts = "w0", clk.Now(), 1
			}
			if status >= Completed {
				r.FinishedAt = clk.Now().Add(-time.Duration(rng.Intn(60)) * time.Second)
			}
			m.Restore(r)
		case 12:
			op = "advance"
			clk.Advance(time.Duration(rng.Intn(8)) * time.Second)
		}
		check(op)
	}
}

// TestIndexesMatchBruteForce is the model check for the per-status
// indexes: after every operation the indexed snapshots, Counts and the
// retention heap agree with a brute-force scan over every record.
func TestIndexesMatchBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		clk := clock.NewVirtual(clock.Epoch)
		m := NewManager(clk)
		drive(t, seed, m, clk, func(op string) {
			var wantU []Task
			var wantA []Record
			var counts [4]int
			live := map[*Record]bool{}
			for _, r := range m.records {
				counts[r.Status]++
				switch r.Status {
				case Unassigned:
					wantU = append(wantU, r.Task)
				case Assigned:
					wantA = append(wantA, *r)
				default:
					live[r] = true
				}
			}
			sort.Slice(wantU, func(i, j int) bool {
				if !wantU[i].Submitted.Equal(wantU[j].Submitted) {
					return wantU[i].Submitted.Before(wantU[j].Submitted)
				}
				return wantU[i].ID < wantU[j].ID
			})
			sort.Slice(wantA, func(i, j int) bool { return wantA[i].Task.ID < wantA[j].Task.ID })

			if got := m.Unassigned(); !reflect.DeepEqual(got, wantU) && len(got)+len(wantU) > 0 {
				t.Fatalf("seed %d after %s: Unassigned = %v, scan = %v", seed, op, got, wantU)
			}
			if got := m.AssignedTasks(); !reflect.DeepEqual(got, wantA) && len(got)+len(wantA) > 0 {
				t.Fatalf("seed %d after %s: AssignedTasks = %v, scan = %v", seed, op, got, wantA)
			}
			if u, a, c, e := m.Counts(); [4]int{u, a, c, e} != counts {
				t.Fatalf("seed %d after %s: Counts = %d/%d/%d/%d, scan = %v", seed, op, u, a, c, e, counts)
			}
			if m.UnassignedCount() != counts[Unassigned] || m.UnassignedHighWater() < counts[Unassigned] {
				t.Fatalf("seed %d after %s: UnassignedCount %d / high-water %d, scan %d", seed, op, m.UnassignedCount(), m.UnassignedHighWater(), counts[Unassigned])
			}
			// Every retained terminal record sits in the heap exactly once;
			// the rest of the heap is the stale tally.
			filed := map[*Record]int{}
			for i, r := range m.terminal {
				filed[r]++
				if i > 0 && m.terminal.Less(i, (i-1)/2) {
					t.Fatalf("seed %d after %s: heap order broken at %d", seed, op, i)
				}
			}
			for r := range live {
				if filed[r] != 1 {
					t.Fatalf("seed %d after %s: terminal %q filed %d times", seed, op, r.Task.ID, filed[r])
				}
			}
			if len(m.terminal)-m.stale != len(live) {
				t.Fatalf("seed %d after %s: heap %d - stale %d != %d terminal records", seed, op, len(m.terminal), m.stale, len(live))
			}
		})
	}
}

// TestForgetThenResubmitSurvivesRetention: an explicitly forgotten record
// leaves a stale heap entry behind; a re-submitted task with the same id
// must not be retired by it.
func TestForgetThenResubmitSurvivesRetention(t *testing.T) {
	m, clk := newTestManager()
	m.Submit(testTask("t1", time.Hour))
	m.Assign("t1", "w")
	m.Complete("t1") // finished at +0
	m.Submit(testTask("keep", time.Hour))
	m.Assign("keep", "w")
	m.Complete("keep") // keeps the stale entry below the compaction bound
	if err := m.Forget("t1"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Minute)
	m.Submit(testTask("t1", time.Hour))
	m.Assign("t1", "w")
	m.Complete("t1") // finished at +1m
	if got := m.ForgetTerminatedBefore(clock.Epoch.Add(time.Second)); got != 1 {
		t.Fatalf("removed %d, want 1 (only keep)", got)
	}
	if r, ok := m.Get("t1"); !ok || !r.FinishedAt.Equal(clock.Epoch.Add(time.Minute)) {
		t.Fatalf("re-submitted t1 = %+v, %v", r, ok)
	}
}

// TestBulkMutationsEmitInStableOrder: two managers given the same
// operations see the same event sequence, so the spine and the journal do
// not depend on map iteration order. Expiries go out in id order and
// retention forgets in (FinishedAt, id) order.
func TestBulkMutationsEmitInStableOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		var logs [2][]Event
		for k := range logs {
			clk := clock.NewVirtual(clock.Epoch)
			m := NewManager(clk)
			m.SetSink(func(ev Event) { logs[k] = append(logs[k], ev) })
			drive(t, seed, m, clk, func(string) {})
		}
		if len(logs[0]) != len(logs[1]) {
			t.Fatalf("seed %d: %d vs %d events", seed, len(logs[0]), len(logs[1]))
		}
		for i := range logs[0] {
			if !reflect.DeepEqual(logs[0][i], logs[1][i]) {
				t.Fatalf("seed %d: event %d differs:\n%+v\n%+v", seed, i, logs[0][i], logs[1][i])
			}
		}
	}

	m, clk := newTestManager()
	var got []string
	m.SetSink(func(ev Event) {
		if ev.Kind == EvExpire || ev.Kind == EvForget {
			got = append(got, ev.Record.Task.ID)
		}
	})
	for _, id := range []string{"d", "b", "e", "a", "c"} {
		m.Submit(testTask(id, 10*time.Second))
	}
	clk.Advance(time.Minute)
	m.ExpireUnassigned()
	for _, id := range []string{"z", "y"} {
		m.Restore(Record{Task: testTask(id, time.Second), Status: Completed, FinishedAt: clock.Epoch})
	}
	m.ForgetTerminatedBefore(clk.Now().Add(time.Second))
	if want := "a b c d e y z a b c d e"; strings.Join(got, " ") != want {
		t.Fatalf("order = %q, want %q", strings.Join(got, " "), want)
	}
}
