package main

import (
	"fmt"

	"react/internal/engine"
	"react/internal/event"
	"react/internal/taskq"
	"react/internal/wire"
)

// ledger is everything the correctness check needs, as plain data so a
// test can plant a fault in it.
type ledger struct {
	ids       []string // offered task ids, by job index
	conn      []int    // submitting connection, by job index
	subs      []submitObs
	results   [][]resultObs // per watching connection
	assigns   []assignObs
	completes []completeObs

	eng         engine.Stats
	admOn       bool
	admCounters [4]int64 // admitted, rejected_probability, rejected_rate, shed

	journal   bool
	recovered map[string]taskq.Record
	replayErr error

	spine []spineEv // nil on an untraced pass
}

// verdict is the check's outcome. Every unresolved task and every
// violation counts as a failed operation.
type verdict struct {
	unresolved int
	violations []string
}

func (v *verdict) violate(format string, args ...any) {
	v.violations = append(v.violations, fmt.Sprintf(format, args...))
}

// check verifies that every offered task reached exactly one terminal
// observation (a refusal or one result per watching connection), that no
// task was held by two workers at once, that the requester's totals
// reconcile with the engine's counters, and — when given — that the
// journal replay and the spine agree with what the requester saw.
func check(l ledger) verdict {
	var v verdict
	n := len(l.ids)
	admitted := 0
	codes := map[string]int64{}
	for _, s := range l.subs {
		switch {
		case s.failed != "":
		case s.ackAt.IsZero():
			v.unresolved++ // sent, never answered
		case s.code != "":
			codes[s.code]++
		default:
			admitted++
		}
	}

	// One result per admitted task on every watching connection, none
	// for a task that was refused or never acknowledged.
	final := make([]*resultObs, n) // the submitting connection's result
	missing := make([]bool, n)
	for c, rs := range l.results {
		count := make([]int, n)
		for k := range rs {
			r := &rs[k]
			if r.task < 0 {
				v.violate("conn %d: result for a task never offered", c)
				continue
			}
			count[r.task]++
			if l.conn[r.task] == c && final[r.task] == nil {
				final[r.task] = r
			}
		}
		for i, k := range count {
			admittedTask := l.subs[i].admitted()
			switch {
			case k > 1:
				v.violate("task %s: %d results on conn %d", l.ids[i], k, c)
			case k == 1 && !admittedTask:
				v.violate("task %s: result for a task that was not admitted", l.ids[i])
			case k == 0 && admittedTask:
				missing[i] = true
			}
		}
	}
	for _, m := range missing {
		if m {
			v.unresolved++
		}
	}

	// Exactly one accepted answer per completed task, and only from the
	// worker holding the latest binding.
	// A worker bound to the same task twice may answer with either
	// execution; what must never happen is an answer accepted from a
	// worker whose binding was since handed to someone else.
	latest := make([]assignObs, n)
	for _, a := range l.assigns {
		if a.task < 0 {
			v.violate("assignment of a task never offered")
			continue
		}
		if a.assignedAt.After(latest[a.task].assignedAt) {
			latest[a.task] = a
		}
	}
	okCompletes := make([]int, n)
	for _, c := range l.completes {
		if !c.ok || c.task < 0 {
			continue
		}
		okCompletes[c.task]++
		if c.worker != latest[c.task].worker {
			v.violate("task %s: answer accepted from a worker whose binding was handed on", l.ids[c.task])
		}
	}
	for i, k := range okCompletes {
		if k > 1 {
			v.violate("task %s: %d accepted answers", l.ids[i], k)
		}
		if r := final[i]; r != nil && r.expired != (k == 0) {
			v.violate("task %s: result expired=%v but %d accepted answers", l.ids[i], r.expired, k)
		}
	}

	// Requester totals reconcile with the engine at drain end.
	if l.eng.Received != int64(admitted) {
		v.violate("engine received %d, requester saw %d admitted", l.eng.Received, admitted)
	}
	if l.eng.Completed+l.eng.Expired != l.eng.Received {
		v.violate("engine completed %d + expired %d != received %d", l.eng.Completed, l.eng.Expired, l.eng.Received)
	}
	if l.admOn {
		c := l.admCounters
		if c[1] != codes[wire.CodeRejectedProbability] {
			v.violate("admission rejected_probability %d, requester saw %d", c[1], codes[wire.CodeRejectedProbability])
		}
		if c[2] != codes[wire.CodeRejectedRate] {
			v.violate("admission rejected_rate %d, requester saw %d", c[2], codes[wire.CodeRejectedRate])
		}
		// The engine ceiling and the deadline check run after an
		// admission verdict, so those refusals were counted admitted.
		if want := int64(admitted) + codes[wire.CodeQueueFull] + codes[wire.CodePastDeadline]; c[0] != want {
			v.violate("admission admitted %d, requester saw %d", c[0], want)
		}
		if c[3] != l.eng.Shed {
			v.violate("admission shed %d, engine shed %d", c[3], l.eng.Shed)
		}
	}

	if l.journal {
		checkJournal(l, final, &v)
	}
	if l.spine != nil {
		checkSpine(l, &v)
	}
	return v
}

// checkJournal requires the state recovered from the journal after a
// clean shutdown to match the terminal state the requester saw.
func checkJournal(l ledger, final []*resultObs, v *verdict) {
	if l.replayErr != nil {
		v.violate("journal replay: %v", l.replayErr)
		return
	}
	for i, id := range l.ids {
		r := final[i]
		if r == nil {
			continue // refused or unresolved; counted above
		}
		rec, ok := l.recovered[id]
		switch {
		case !ok:
			v.violate("journal: task %s missing after replay", id)
		case r.expired && rec.Status != taskq.Expired:
			v.violate("journal: task %s recovered %v, requester saw expired", id, rec.Status)
		case !r.expired && rec.Status != taskq.Completed:
			v.violate("journal: task %s recovered %v, requester saw completed", id, rec.Status)
		case !r.expired && rec.MetDeadline() != r.met:
			v.violate("journal: task %s recovered met=%v, requester saw met=%v", id, rec.MetDeadline(), r.met)
		}
	}
}

// checkSpine walks each task's spine timeline through the lifecycle state
// machine: submit, then (assign, then revoke or complete)*, then exactly
// one terminal event.
func checkSpine(l ledger, v *verdict) {
	const (
		none = iota
		waiting
		held
		over
	)
	state := make([]uint8, len(l.ids))
	for _, e := range l.spine {
		if !e.kind.Lifecycle() {
			continue
		}
		if e.task < 0 {
			v.violate("spine: %v event for a task never offered", e.kind)
			continue
		}
		s := &state[e.task]
		ok := true
		switch e.kind {
		case event.KindSubmit:
			ok = *s == none
			*s = waiting
		case event.KindAssign:
			ok = *s == waiting
			*s = held
		case event.KindRevoke:
			ok = *s == held
			*s = waiting
		case event.KindComplete:
			ok = *s == held
			*s = over
		case event.KindExpire:
			ok = *s == waiting || *s == held
			*s = over
		case event.KindForget:
			ok = *s == over
		}
		if !ok {
			v.violate("spine: task %s: %v out of order", l.ids[e.task], e.kind)
		}
	}
	for i, s := range state {
		if l.subs[i].admitted() && s != over {
			v.violate("spine: task %s has no terminal event", l.ids[i])
		}
	}
}
