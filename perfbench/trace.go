package main

import (
	"sort"
	"time"
)

// span is one traced interval: a call from the benchmark into a layer's
// public entry point. Times are offsets from the tracer's origin.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root span
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; the child writes them out once, when its
// re-enactment ends. It is used from one goroutine only.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) start(name string, parent int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.origin),
	})
	return len(t.spans)
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = time.Since(t.origin)
	return s.dur()
}

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, parent int, fn func(id int)) time.Duration {
	id := t.start(name, parent)
	fn(id)
	return t.end(id)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover. Overlapping children
// are counted once, and a child's part outside its parent is ignored.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// unattributed sums, over the root spans, the root's duration minus the
// summed durations of its direct children: time the re-enactment spent
// between layer calls.
func unattributed(spans []span) time.Duration {
	isRoot := make(map[int]bool)
	var total time.Duration
	for _, s := range spans {
		if s.Parent == 0 {
			isRoot[s.ID] = true
			total += s.dur()
		}
	}
	for _, s := range spans {
		if isRoot[s.Parent] {
			total -= s.dur()
		}
	}
	return total
}

// spanCost measures what opening and closing one span costs on this
// host, as the median of several batches, so a traced run can report the
// overhead its own spans added.
func spanCost() time.Duration {
	const batch = 20000
	var per []float64
	for r := 0; r < 5; r++ {
		t := newTracer()
		t.spans = make([]span, 0, batch)
		start := time.Now()
		for i := 0; i < batch; i++ {
			t.end(t.start("probe", 0))
		}
		per = append(per, float64(time.Since(start))/batch)
	}
	return time.Duration(median(per))
}
