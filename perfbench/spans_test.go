package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "step", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "move", Start: 10, End: 20},
		{ID: 2, Parent: 0, Name: "trace", Start: 20, End: 50},
		{ID: 3, Parent: 2, Name: "inner", Start: 25, End: 35},
		// Overlaps trace: the union 20–60 is covered once.
		{ID: 4, Parent: 0, Name: "sweep", Start: 40, End: 60},
		// Reaches past its parent's end: only 90–100 counts.
		{ID: 5, Parent: 0, Name: "late", Start: 90, End: 120},
		{ID: 6, Parent: -1, Name: "step", Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"step":  100 - (10 + 40 + 10) + 10, // two roots, the second has no children
		"move":  10,
		"trace": 20,
		"inner": 10,
		"sweep": 20,
		"late":  30,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self(%s) = %v, want %v", k, got[k], v)
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *spanRecorder
	id := r.begin("x", -1)
	r.end(id)
	if id != -1 {
		t.Errorf("nil recorder returned span %d", id)
	}
	rec := newSpanRecorder()
	a := rec.begin("a", -1)
	b := rec.begin("b", a)
	rec.end(b)
	rec.end(a)
	if len(rec.spans) != 2 || rec.spans[1].Parent != a || rec.spans[0].End < rec.spans[1].End {
		t.Errorf("spans %+v", rec.spans)
	}
}
