package main

import (
	"testing"
	"time"
)

func msDur(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: msDur(100)},
		{ID: 2, Parent: 1, Name: "a", Start: msDur(10), End: msDur(30)},
		{ID: 3, Parent: 1, Name: "b", Start: msDur(20), End: msDur(50)}, // overlaps a by 10
		{ID: 4, Parent: 3, Name: "b.x", Start: msDur(25), End: msDur(35)},
		{ID: 5, Parent: 1, Name: "late", Start: msDur(90), End: msDur(120)}, // runs past its parent
	}
	got := selfTimes(spans)
	want := map[int]time.Duration{
		1: msDur(100 - 40 - 10), // children cover [10,50] and [90,100]
		2: msDur(20),
		3: msDur(30 - 10),
		4: msDur(10),
		5: msDur(30),
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time = %v, want %v", id, got[id], w)
		}
	}
}

func TestUnattributed(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: msDur(100)},
		{ID: 2, Parent: 1, Start: msDur(0), End: msDur(40)},
		{ID: 3, Parent: 2, Start: msDur(0), End: msDur(30)}, // grandchild: not subtracted again
		{ID: 4, Parent: 1, Start: msDur(50), End: msDur(80)},
		{ID: 5, Parent: 0, Start: msDur(200), End: msDur(210)}, // a second root with no children
	}
	if got, want := unattributed(spans), msDur(100-40-30+10); got != want {
		t.Errorf("unattributed = %v, want %v", got, want)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.start("root", 0)
	tr.do("child", root, func(id int) { tr.do("grandchild", id, func(int) {}) })
	tr.end(root)
	if len(tr.spans) != 3 || tr.spans[1].Parent != root || tr.spans[2].Parent != tr.spans[1].ID {
		t.Fatalf("bad span tree: %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	for id, d := range selfTimes(tr.spans) {
		if d < 0 {
			t.Errorf("span %d has negative self time %v", id, d)
		}
	}
}
