package main

import "testing"

func TestSelfTimesSubtractChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "trace", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "cell", Start: 10, End: 60},
		{ID: 2, Parent: 1, Name: "simulate.run", Start: 20, End: 40},
		{ID: 3, Parent: 1, Name: "finish.validate", Start: 35, End: 50}, // overlaps its sibling
		{ID: 4, Parent: 0, Name: "cell", Start: 70, End: 80},
		{ID: 5, Parent: 4, Name: "emit", Start: 75, End: 90}, // runs past its parent
	}
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{100 - 50 - 10, 50 - 30, 20, 15, 10 - 5, 15}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
	by := selfByName(spans, self)
	if got := by["cell"]; got != float64(20+5)/1e9 {
		t.Errorf("cell self %g s, want %g s", got, float64(25)/1e9)
	}
}

func TestSelfTimesOfNestedSpansSumToRoot(t *testing.T) {
	tr := newTracer()
	root := tr.begin("trace", -1, -1)
	for c := 0; c < 3; c++ {
		cell := tr.begin("cell", root, c)
		for _, n := range []string{"install.new", "simulate.run", "emit"} {
			sp := tr.begin(n, cell, c)
			tr.end(sp)
		}
		tr.begin("finish.validate", cell, c) // left open, as a panic would
		tr.end(cell)
	}
	tr.end(root)
	self, err := selfTimes(tr.spans)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, s := range self {
		sum += s
	}
	if d := tr.spans[root].End - tr.spans[root].Start; sum != d {
		t.Fatalf("self times sum to %d ns, root lasts %d ns", sum, d)
	}
}

func TestSelfTimesRejectUnclosedSpan(t *testing.T) {
	if _, err := selfTimes([]span{{ID: 0, Parent: -1, Start: 5, End: -1}}); err == nil {
		t.Fatal("an unclosed span was accepted")
	}
}
