package main

import "testing"

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "map", StartNS: 0, EndNS: 100},
		// Two overlapping parallel children cover [10, 60); a third covers
		// [70, 80); one sticks out past the parent and is clipped to 100.
		{ID: 2, Parent: 1, Name: "cell", StartNS: 10, EndNS: 50},
		{ID: 3, Parent: 1, Name: "cell", StartNS: 20, EndNS: 60},
		{ID: 4, Parent: 1, Name: "cell", StartNS: 70, EndNS: 80},
		{ID: 5, Parent: 1, Name: "cell", StartNS: 95, EndNS: 130},
		// A grandchild counts against its own parent only.
		{ID: 6, Parent: 2, Name: "run", StartNS: 15, EndNS: 45},
		{ID: 7, Name: "alone", StartNS: 5, EndNS: 9},
	}
	self := selfTimes(spans)
	want := []int64{100 - 50 - 10 - 5, 40 - 30, 40, 10, 35, 30, 4}
	for i := range spans {
		if self[i] != want[i] {
			t.Errorf("span %d self = %d, want %d", spans[i].ID, self[i], want[i])
		}
	}
}

func TestRecorderAndLayerStats(t *testing.T) {
	var nilRec *recorder
	if id := nilRec.start("x", 0, ""); id != 0 {
		t.Fatal("a nil recorder must record nothing")
	}
	nilRec.end(0)

	tr := newRecorder()
	root := tr.start("transport.roundtrip", 0, "t-1")
	child := tr.start("service.handler", root, "t-1")
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].EndNS < spans[1].EndNS {
		t.Fatalf("spans not nested: %+v", spans)
	}
	stats := layerStats(spans)
	if len(stats) != 2 || stats[0].Name != "transport.roundtrip" || stats[0].Count != 1 {
		t.Fatalf("layer stats = %+v", stats)
	}
	self := selfTimes(spans)
	v, n := selfP50(spans, self, "transport.roundtrip", "t-")
	if n != 1 || v > stats[0].P50 {
		t.Errorf("self p50 %v over %d spans, roundtrip p50 %v", v, n, stats[0].P50)
	}
}
