package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one traced call: its name, its interval in nanoseconds since the
// trace began, the span that caused it (-1 for the root) and the replayed
// cell it belongs to (-1 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Cell   int    `json:"cell"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. Spans nest: end closes a span together
// with any span opened inside it that is still open.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(name string, parent, cell int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Cell: cell, Start: t.now(), End: -1})
	t.open = append(t.open, id)
	return id
}

// end closes span id and every span still open inside it.
func (t *tracer) end(id int) {
	t.closeAbove(id)
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.spans[id].End = t.now()
		t.open = t.open[:n-1]
	}
}

// closeAbove closes every open span opened after span id.
func (t *tracer) closeAbove(id int) {
	now := t.now()
	for n := len(t.open); n > 0 && t.open[n-1] != id; n = len(t.open) {
		t.spans[t.open[n-1]].End = now
		t.open = t.open[:n-1]
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	var spans []span
	err := readJSONLines(path, func(line []byte) error {
		var s span
		if err := json.Unmarshal(line, &s); err != nil {
			return err
		}
		spans = append(spans, s)
		return nil
	})
	return spans, err
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Spans are indexed by ID.
func selfTimes(spans []span) ([]int64, error) {
	children := make([][]span, len(spans))
	for i, s := range spans {
		if s.ID != i {
			return nil, fmt.Errorf("span %d has id %d", i, s.ID)
		}
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) was not closed", s.ID, s.Name)
		}
		if s.Parent >= 0 {
			if s.Parent >= len(spans) {
				return nil, fmt.Errorf("span %d has unknown parent %d", s.ID, s.Parent)
			}
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s.Start, s.End, children[i])
	}
	return self, nil
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(lo, hi int64, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfByName sums self time, in seconds, per span name.
func selfByName(spans []span, self []int64) map[string]float64 {
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Name] += float64(self[i]) / 1e9
	}
	return out
}
