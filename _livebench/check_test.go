package main

import (
	"strings"
	"testing"

	"react/internal/engine"
	"react/internal/event"
	"react/internal/taskq"
)

// cleanLedger is two admitted tasks on two watching connections: task 0
// completed by worker 0, task 1 revoked from worker 0, rebound to worker
// 1 and completed there; plus one refused task.
func cleanLedger() ledger {
	return ledger{
		ids:  []string{"t0", "t1", "t2"},
		conn: []int{0, 1, 0},
		subs: []submitObs{
			{sendAt: at(0), ackAt: at(1)},
			{sendAt: at(0), ackAt: at(1)},
			{sendAt: at(0), ackAt: at(1), code: "rejected_rate"},
		},
		results: [][]resultObs{
			{{task: 0, at: at(50), met: true}, {task: 1, at: at(90)}},
			{{task: 0, at: at(50), met: true}, {task: 1, at: at(90)}},
		},
		assigns: []assignObs{
			{task: 0, worker: 0, assignedAt: at(10), recv: at(11)},
			{task: 1, worker: 0, assignedAt: at(10), recv: at(11)},
			{task: 1, worker: 1, assignedAt: at(30), recv: at(31)},
		},
		completes: []completeObs{
			{task: 0, worker: 0, assignedAt: at(10), ok: true},
			{task: 1, worker: 0, assignedAt: at(10)}, // revoked: refused, as it should be
			{task: 1, worker: 1, assignedAt: at(30), ok: true},
		},
		eng: engine.Stats{Received: 2, Completed: 2},
		spine: []spineEv{
			{kind: event.KindSubmit, task: 0}, {kind: event.KindSubmit, task: 1},
			{kind: event.KindAssign, task: 0}, {kind: event.KindAssign, task: 1},
			{kind: event.KindRevoke, task: 1}, {kind: event.KindAssign, task: 1},
			{kind: event.KindComplete, task: 0}, {kind: event.KindComplete, task: 1},
		},
		journal: true,
		recovered: map[string]taskq.Record{
			"t0": record(taskq.Completed, 40, 100),
			"t1": record(taskq.Completed, 80, 60), // late
		},
	}
}

func record(st taskq.Status, finished, deadline int) taskq.Record {
	return taskq.Record{Status: st, FinishedAt: at(finished), Task: taskq.Task{Deadline: at(deadline)}}
}

func wantViolation(t *testing.T, v verdict, substr string) {
	t.Helper()
	for _, s := range v.violations {
		if strings.Contains(s, substr) {
			return
		}
	}
	t.Errorf("no violation containing %q in %q", substr, v.violations)
}

func TestCheckCleanLedger(t *testing.T) {
	v := check(cleanLedger())
	if v.unresolved != 0 || len(v.violations) != 0 {
		t.Fatalf("clean ledger: unresolved %d, violations %q", v.unresolved, v.violations)
	}
}

func TestCheckCatchesDoubleTerminal(t *testing.T) {
	l := cleanLedger()
	l.results[1] = append(l.results[1], resultObs{task: 1, at: at(95), expired: true})
	wantViolation(t, check(l), "task t1: 2 results on conn 1")

	l = cleanLedger()
	l.completes = append(l.completes, completeObs{task: 0, worker: 0, assignedAt: at(10), ok: true})
	wantViolation(t, check(l), "task t0: 2 accepted answers")

	l = cleanLedger()
	l.spine = append(l.spine, spineEv{kind: event.KindExpire, task: 0})
	wantViolation(t, check(l), "spine: task t0: expire out of order")
}

func TestCheckCatchesUnresolved(t *testing.T) {
	l := cleanLedger()
	for c := range l.results {
		l.results[c] = l.results[c][1:] // t0's result never arrives
	}
	v := check(l)
	if v.unresolved != 1 {
		t.Errorf("unresolved = %d, want 1", v.unresolved)
	}

	l = cleanLedger()
	l.subs[1] = submitObs{sendAt: at(0)} // the reply never came back
	l.results = [][]resultObs{{{task: 0, at: at(50), met: true}}, {{task: 0, at: at(50), met: true}}}
	l.eng.Received, l.eng.Completed = 1, 1
	l.spine = l.spine[:0]
	l.journal = false
	if v := check(l); v.unresolved != 1 {
		t.Errorf("unacked submission: unresolved = %d, want 1", v.unresolved)
	}
}

func TestCheckCatchesSupersededAnswerAndDrift(t *testing.T) {
	l := cleanLedger()
	l.completes[1].ok = true // worker 0 answered after losing t1
	l.completes[2].ok = false
	wantViolation(t, check(l), "task t1: answer accepted from a worker whose binding was handed on")

	l = cleanLedger()
	l.eng.Received = 3
	wantViolation(t, check(l), "engine received 3, requester saw 2 admitted")

	l = cleanLedger()
	l.recovered["t0"] = record(taskq.Expired, 40, 100)
	wantViolation(t, check(l), "journal: task t0 recovered expired")
}
