package obs

import (
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

// manualClock is a Clock the test advances by hand; every reading
// between two advances is the same instant.
type manualClock struct{ now time.Time }

func (c *manualClock) read() time.Time         { return c.now }
func (c *manualClock) advance(d time.Duration) { c.now = c.now.Add(d) }

// request opens and ends one trace shaped like a routed request: a root
// and one child, each taking d of wall time. It returns the root.
func request(tr *Tracer, clk *manualClock, d time.Duration) *Span {
	root := tr.Start("router /v1/predict", 0)
	child := tr.StartChild(root, "forward r0", 0)
	clk.advance(d)
	child.End(0)
	root.End(0)
	return root
}

// traceSpans returns the retained spans of one trace.
func traceSpans(tr *Tracer, root *Span) []SpanRecord {
	var out []SpanRecord
	for _, r := range tr.Spans() {
		if r.TraceID == root.TraceID().String() {
			out = append(out, r)
		}
	}
	return out
}

// TestRetentionBound ends ten times the ring's capacity in traces and
// holds the retained spans to the constant bound: every completed trace
// past the ring and the tail set is gone, whole.
func TestRetentionBound(t *testing.T) {
	clk := &manualClock{now: time.Unix(1700000000, 0)}
	tr := NewTracer(1)
	tr.SetClock(clk.read)
	const perTrace = 2
	first := request(tr, clk, time.Microsecond)
	for i := 1; i < 10*RecentTraces; i++ {
		request(tr, clk, time.Microsecond)
		if n := tr.Len(); n > (RecentTraces+TailTraces)*perTrace {
			t.Fatalf("after %d traces %d spans retained, bound %d", i+1, n, (RecentTraces+TailTraces)*perTrace)
		}
	}
	spans := tr.Spans()
	if len(spans) != tr.Len() {
		t.Fatalf("Spans() has %d records, Len() %d", len(spans), tr.Len())
	}
	if len(spans) < RecentTraces*perTrace {
		t.Fatalf("%d spans retained, want at least the ring's %d", len(spans), RecentTraces*perTrace)
	}
	if got := traceSpans(tr, first); len(got) != 0 {
		t.Fatalf("the first trace (equal in speed to the rest) is still retained: %d spans", len(got))
	}
	// Whole traces only, in start order.
	perTraceSeen := map[string]int{}
	for i, r := range spans {
		perTraceSeen[r.TraceID]++
		if i > 0 && r.WallStartNS < spans[i-1].WallStartNS {
			t.Fatalf("span %d starts before span %d", i, i-1)
		}
	}
	for id, n := range perTraceSeen {
		if n != perTrace {
			t.Fatalf("trace %s retained %d of its %d spans", id, n, perTrace)
		}
	}
}

// TestKeptTraceSurvivesFastBurst: a Keep-marked trace outlives ten
// ring-fulls of fast traces, and so does a slow one for the window it
// was slowest in and the next; neither is held after that.
func TestKeptTraceSurvivesFastBurst(t *testing.T) {
	clk := &manualClock{now: time.Unix(1700000000, 0)}
	tr := NewTracer(2)
	tr.SetClock(clk.read)

	kept := tr.Start("router /v1/predict", 0)
	tr.StartChild(kept, "forward r0", 0).End(0)
	kept.SetAttr("code", "503")
	kept.Keep()
	kept.End(0)
	slow := request(tr, clk, time.Second)

	for i := 0; i < 10*RecentTraces; i++ {
		request(tr, clk, time.Microsecond)
		if i == RecentTraces+RecentTraces/2 {
			// In the second window: the slow trace is its first
			// window's slowest, held for one more window.
			if got := traceSpans(tr, slow); len(got) != 2 {
				t.Fatalf("slow trace has %d spans retained one window on, want 2", len(got))
			}
		}
	}
	if got := traceSpans(tr, kept); len(got) != 2 || got[0].Attr("code") != "503" {
		t.Fatalf("kept trace not retained whole: %+v", got)
	}
	if got := traceSpans(tr, slow); len(got) != 0 {
		t.Fatalf("slow trace still held ten windows on: %d spans", len(got))
	}

	// The kept ring is bounded too: keptTraces newer marked traces
	// evict the first.
	for i := 0; i < keptTraces; i++ {
		sp := tr.Start("router /v1/predict", 0)
		sp.Keep()
		sp.End(0)
	}
	for i := 0; i < RecentTraces; i++ {
		request(tr, clk, time.Microsecond)
	}
	if got := traceSpans(tr, kept); len(got) != 0 {
		t.Fatalf("kept trace survived %d newer kept traces", keptTraces)
	}
}

// TestOpenTraceHeldWhole: a trace whose root is still open keeps every
// span, however many traces complete meanwhile, and a child of an
// ended root still joins its trace.
func TestOpenTraceHeldWhole(t *testing.T) {
	clk := &manualClock{now: time.Unix(1700000000, 0)}
	tr := NewTracer(4)
	tr.SetClock(clk.read)
	campaign := tr.Start("campaign", 0)
	const jobs = 3 * RecentTraces
	for i := 0; i < jobs; i++ {
		tr.StartChild(campaign, "job", float64(i)).End(float64(i) + 1)
		request(tr, clk, time.Microsecond)
	}
	if got := traceSpans(tr, campaign); len(got) != 1+jobs {
		t.Fatalf("open trace has %d spans retained, want %d", len(got), 1+jobs)
	}
	campaign.End(jobs)
	tr.StartChild(campaign, "report", jobs).End(jobs)
	if got := traceSpans(tr, campaign); len(got) != 2+jobs || got[len(got)-1].Name != "report" {
		t.Fatalf("completed trace has %d spans retained, want %d ending in the report", len(got), 2+jobs)
	}
}

// TestForeignParentRootsLocalTrace: a StartChild parent from another
// tracer is a remote parent: the span roots a trace here, linked to it.
func TestForeignParentRootsLocalTrace(t *testing.T) {
	router, replica := NewTracer(1), NewTracer(2)
	fwd := router.Start("forward r0", 0)
	h := replica.StartChild(fwd, "http /v1/predict", 0)
	h.End(0)
	fwd.End(0)
	got := replica.Spans()
	if len(got) != 1 || got[0].Parent != fwd.ID().String() || got[0].TraceID != fwd.TraceID().String() {
		t.Fatalf("replica spans %+v, want one linked to the router's forward span", got)
	}
	if router.Len() != 1 {
		t.Fatalf("router retained %d spans, want 1", router.Len())
	}
}

// TestRetentionDeterministic: two runs under one seed and a virtual
// clock, with slow and kept traces among fast ones and two windows
// closing, retain the same spans.
func TestRetentionDeterministic(t *testing.T) {
	run := func() []SpanRecord {
		clk := &manualClock{now: time.Unix(1700000000, 0)}
		tr := NewTracer(9)
		tr.SetClock(clk.read)
		for i := 0; i < 3*RecentTraces; i++ {
			d := time.Duration(1+(i*7919)%97) * time.Microsecond
			root := request(tr, clk, d)
			if i%211 == 0 {
				root.Keep()
			}
		}
		return tr.Spans()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed runs retained different spans (%d vs %d)", len(a), len(b))
	}
	if !slices.IsSortedFunc(a, func(x, y SpanRecord) int { return int(x.WallStartNS - y.WallStartNS) }) {
		t.Fatalf("spans not in start order")
	}
}

// TestTracerConcurrent: requests from several goroutines, with readers
// snapshotting meanwhile, keep the bound and lose no open trace.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(5)
	const workers, perWorker = 4, RecentTraces
	held := tr.Start("campaign", 0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				root := tr.Start("http /v1/predict", 0)
				tr.StartChild(root, "forward r0", 0).End(0)
				tr.StartChild(held, "job", 0).End(0)
				if i%100 == 0 {
					root.Keep()
				}
				root.SetAttr("code", "200")
				root.End(0)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if n, spans := tr.Len(), tr.Spans(); n < 1 || len(spans) < 1 {
				t.Errorf("snapshot %d: Len %d, %d spans", i, n, len(spans))
				return
			}
		}
	}()
	wg.Wait()
	if got := traceSpans(tr, held); len(got) != 1+workers*perWorker {
		t.Fatalf("open trace has %d spans, want %d", len(got), 1+workers*perWorker)
	}
	if n := tr.Len(); n > 1+workers*perWorker+(RecentTraces+TailTraces)*2 {
		t.Fatalf("%d spans retained over the bound", n)
	}
	held.End(0)
}
