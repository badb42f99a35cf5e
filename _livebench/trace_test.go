package main

import (
	"testing"
	"time"
)

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "loadgen.task", parent: -1, start: at(0), end: at(10)},
		{name: "wire.submit", parent: 0, start: at(1), end: at(3)},
		{name: "engine.queue_wait", parent: 0, start: at(2), end: at(5)}, // overlaps its sibling
		{name: "wire.result_push", parent: 0, start: at(8), end: at(12)}, // runs past the parent
		{name: "engine.deliver", parent: 2, start: at(3), end: at(4)},
		{name: "probe.round", parent: -1, start: at(20), end: at(26)},
	}
	want := []time.Duration{
		4 * time.Millisecond, // 10 - |[1,5] ∪ [8,10]|
		2 * time.Millisecond,
		2 * time.Millisecond, // 3 - its child's 1
		4 * time.Millisecond,
		1 * time.Millisecond,
		6 * time.Millisecond,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].name, got[i], want[i])
		}
	}
	if l := spans[2].layer(); l != "engine" {
		t.Errorf("layer = %q", l)
	}
}

// Stage spans that tile their root leave it no self time: the residual
// the trace reports is zero exactly when the stages cover the path.
func TestTiledStagesLeaveNoResidual(t *testing.T) {
	spans := []span{{name: "loadgen.task", parent: -1, start: at(0), end: at(9)}}
	for _, b := range [][2]int{{0, 1}, {1, 4}, {4, 9}} {
		spans = append(spans, span{name: "x.stage", parent: 0, start: at(b[0]), end: at(b[1])})
	}
	if got := selfTimes(spans)[0]; got != 0 {
		t.Errorf("residual %v, want 0", got)
	}
	spans = append(spans[:2], spans[3:]...) // drop the middle stage
	if got := selfTimes(spans)[0]; got != 3*time.Millisecond {
		t.Errorf("residual with a missing stage %v, want 3ms", got)
	}
}
