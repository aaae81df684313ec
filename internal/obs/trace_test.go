package obs

import (
	"testing"
	"time"

	"repro/internal/units"
)

// fixedClock returns a Clock that advances stepNS per call from a fixed
// epoch, making wall fields deterministic in tests.
func fixedClock(stepNS int64) Clock {
	base := time.Unix(1700000000, 0)
	var calls int64
	return func() time.Time {
		calls++
		return base.Add(time.Duration(calls * stepNS))
	}
}

func TestSpanIDDeterministic(t *testing.T) {
	a := spanID(42, 0)
	b := spanID(42, 0)
	if a != b {
		t.Fatalf("same seed+seq gave different IDs: %v vs %v", a, b)
	}
	if spanID(42, 1) == a {
		t.Fatalf("different seq gave identical ID")
	}
	if spanID(43, 0) == a {
		t.Fatalf("different seed gave identical ID")
	}
	if len(a.String()) != 16 {
		t.Fatalf("ID string %q is not 16 hex digits", a.String())
	}
	if SpanID(0).String() != "" {
		t.Fatalf("zero ID should render empty, got %q", SpanID(0).String())
	}
}

func TestTracerSameSeedSameSpans(t *testing.T) {
	build := func() []SpanRecord {
		tr := NewTracer(7)
		tr.SetClock(fixedClock(1000))
		root := tr.Start("campaign", 0)
		child := tr.StartChild(root, "job", 1.5)
		child.SetAttr("name", "aorta")
		child.SetAttrF("steps", 1000)
		child.End(4.5)
		root.End(5)
		return tr.Spans()
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("span counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Parent != b[i].Parent || a[i].Name != b[i].Name {
			t.Fatalf("span %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSpanHierarchyAndFields(t *testing.T) {
	tr := NewTracer(1)
	tr.SetClock(fixedClock(1000))
	root := tr.Start("root", 10)
	root.SetTrack("lane-a")
	child := tr.StartChild(root, "child", 11)
	if got := child.ID(); got == 0 {
		t.Fatalf("child has zero ID")
	}
	child.End(12)
	child.End(99) // second End must be ignored
	root.End(20)

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(spans))
	}
	r, c := spans[0], spans[1]
	if c.Parent != r.ID {
		t.Fatalf("child parent %q != root ID %q", c.Parent, r.ID)
	}
	if c.Track != "lane-a" {
		t.Fatalf("child did not inherit parent track, got %q", c.Track)
	}
	if !units.ApproxEqual(c.SimEndS, 12, 1e-12) {
		t.Fatalf("second End overwrote first: SimEndS = %g", c.SimEndS)
	}
	if !c.Ended || !r.Ended {
		t.Fatalf("spans not marked ended: %+v %+v", r, c)
	}
	if c.WallDurNS <= 0 {
		t.Fatalf("ended span has non-positive wall duration %d", c.WallDurNS)
	}
	if got := c.SimDurS(); !units.ApproxEqual(got, 1, 1e-12) {
		t.Fatalf("SimDurS = %g, want 1", got)
	}
}

func TestUnendedSpanSnapshot(t *testing.T) {
	tr := NewTracer(1)
	tr.SetClock(fixedClock(1000))
	tr.Start("open", 3)
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("want 1 span, got %d", len(spans))
	}
	s := spans[0]
	if s.Ended {
		t.Fatalf("unended span reported Ended")
	}
	if s.SimDurS() != 0 || s.WallDurNS != 0 {
		t.Fatalf("unended span has nonzero duration: %+v", s)
	}
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	tr.SetClock(nil)
	s := tr.Start("x", 0)
	if s != nil {
		t.Fatalf("nil tracer returned non-nil span")
	}
	c := tr.StartChild(s, "y", 0)
	// All span methods must be safe on nil.
	s.SetTrack("t")
	s.SetAttr("k", "v")
	s.SetAttrF("f", 1.5)
	s.Keep()
	s.End(1)
	c.End(2)
	if s.ID() != 0 {
		t.Fatalf("nil span ID = %v, want 0", s.ID())
	}
	if tr.Spans() != nil || tr.Len() != 0 {
		t.Fatalf("nil tracer reported spans")
	}
}

func TestStartChildNilParentIsRoot(t *testing.T) {
	tr := NewTracer(3)
	tr.SetClock(fixedClock(1000))
	s := tr.StartChild(nil, "orphan", 0)
	s.End(1)
	spans := tr.Spans()
	if spans[0].Parent != "" {
		t.Fatalf("nil-parent child has parent %q", spans[0].Parent)
	}
}

func TestSpanRecordAttr(t *testing.T) {
	r := SpanRecord{Attrs: []Attr{{Key: "a", Value: "1"}, {Key: "b", Value: "2"}}}
	if r.Attr("b") != "2" {
		t.Fatalf("Attr(b) = %q", r.Attr("b"))
	}
	if r.Attr("missing") != "" {
		t.Fatalf("Attr(missing) = %q", r.Attr("missing"))
	}
}
