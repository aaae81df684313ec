package decomp

import (
	"math"
	"testing"

	"repro/internal/geometry"
	"repro/internal/lbm"
)

func solver(t *testing.T, dom *geometry.Domain) *lbm.Sparse {
	t.Helper()
	s, err := lbm.NewSparse(dom, lbm.Params{Tau: 0.9, PeriodicX: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func cylinderSolver(t *testing.T) *lbm.Sparse {
	t.Helper()
	dom, err := geometry.Cylinder(32, 7)
	if err != nil {
		t.Fatal(err)
	}
	return solver(t, dom)
}

func TestRCBValidation(t *testing.T) {
	s := cylinderSolver(t)
	m := lbm.HarveyAccess()
	if _, err := RCB(s, 0, m); err == nil {
		t.Error("want error for zero tasks")
	}
	if _, err := RCB(s, s.N()+1, m); err == nil {
		t.Error("want error for more tasks than sites")
	}
}

func TestRCBInvariantsAcrossTaskCounts(t *testing.T) {
	s := cylinderSolver(t)
	m := lbm.HarveyAccess()
	for _, k := range []int{1, 2, 3, 4, 7, 8, 16, 33, 64} {
		p, err := RCB(s, k, m)
		if err != nil {
			t.Fatalf("RCB(%d): %v", k, err)
		}
		if err := p.Validate(s); err != nil {
			t.Fatalf("RCB(%d): %v", k, err)
		}
		if p.NTasks != k || len(p.Tasks) != k {
			t.Fatalf("RCB(%d): got %d tasks", k, len(p.Tasks))
		}
		for i := range p.Tasks {
			if p.Tasks[i].Points == 0 {
				t.Errorf("RCB(%d): task %d owns no sites", k, i)
			}
		}
		if z := p.Imbalance(); z < 1-1e-9 {
			t.Errorf("RCB(%d): imbalance %v below 1", k, z)
		}
	}
}

func TestRCBSerialCase(t *testing.T) {
	s := cylinderSolver(t)
	p, err := RCB(s, 1, lbm.HarveyAccess())
	if err != nil {
		t.Fatal(err)
	}
	if p.Tasks[0].Points != s.N() {
		t.Errorf("serial task owns %d of %d sites", p.Tasks[0].Points, s.N())
	}
	if len(p.Tasks[0].Sends) != 0 {
		t.Error("serial partition has halo messages")
	}
	if z := p.Imbalance(); z != 1 {
		t.Errorf("serial imbalance = %v, want exactly 1", z)
	}
	if math.Abs(p.TotalBytes()-s.BytesSerial(lbm.HarveyAccess())) > 1e-6 {
		t.Errorf("TotalBytes %v != serial bytes %v", p.TotalBytes(), s.BytesSerial(lbm.HarveyAccess()))
	}
}

func TestRCBBalanceQuality(t *testing.T) {
	// RCB on a well-shaped domain must stay within a modest imbalance.
	s := cylinderSolver(t)
	p, err := RCB(s, 16, lbm.HarveyAccess())
	if err != nil {
		t.Fatal(err)
	}
	if z := p.Imbalance(); z > 1.35 {
		t.Errorf("imbalance %v too high for cylinder/16", z)
	}
}

func TestRCBTotalBytesInvariant(t *testing.T) {
	// Decomposition must not create or destroy work.
	s := cylinderSolver(t)
	m := lbm.HarveyAccess()
	serial := s.BytesSerial(m)
	for _, k := range []int{2, 8, 32} {
		p, err := RCB(s, k, m)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(p.TotalBytes()-serial) / serial; rel > 1e-12 {
			t.Errorf("RCB(%d): total bytes drifted by %v", k, rel)
		}
	}
}

func TestRCBDeterminism(t *testing.T) {
	s := cylinderSolver(t)
	m := lbm.HarveyAccess()
	a, err := RCB(s, 8, m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RCB(s, 8, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Owner {
		if a.Owner[i] != b.Owner[i] {
			t.Fatalf("nondeterministic ownership at site %d", i)
		}
	}
}

func TestHaloGrowsWithTasks(t *testing.T) {
	// Strong scaling: more tasks, more total communication surface.
	s := cylinderSolver(t)
	m := lbm.HarveyAccess()
	p2, err := RCB(s, 2, m)
	if err != nil {
		t.Fatal(err)
	}
	p16, err := RCB(s, 16, m)
	if err != nil {
		t.Fatal(err)
	}
	var tot2, tot16 float64
	var ev2, ev16 int // the busiest task's message events
	for i := range p2.Tasks {
		tot2 += p2.Tasks[i].TotalSendBytes()
		ev2 = max(ev2, p2.Tasks[i].Events())
	}
	for i := range p16.Tasks {
		tot16 += p16.Tasks[i].TotalSendBytes()
		ev16 = max(ev16, p16.Tasks[i].Events())
	}
	if tot16 <= tot2 {
		t.Errorf("total halo bytes did not grow: %v (16) vs %v (2)", tot16, tot2)
	}
	if ev16 < ev2 {
		t.Errorf("max events shrank: %d vs %d", ev16, ev2)
	}
}

func TestCylinderCommunicatesMoreThanCerebral(t *testing.T) {
	// Figure 2 narrative: per fluid point, the efficiently packed cylinder
	// needs more halo exchange than the thin-vesseled cerebral tree.
	cyl := cylinderSolver(t)
	dom, err := geometry.Cerebral(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	cer := solver(t, dom)
	m := lbm.HarveyAccess()
	const k = 16
	pc, err := RCB(cyl, k, m)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := RCB(cer, k, m)
	if err != nil {
		t.Fatal(err)
	}
	maxSend := func(p *Partition) (m float64) {
		for i := range p.Tasks {
			m = math.Max(m, p.Tasks[i].TotalSendBytes())
		}
		return m
	}
	perPointCyl := maxSend(pc) / (float64(cyl.N()) / k)
	perPointCer := maxSend(pe) / (float64(cer.N()) / k)
	if perPointCyl <= perPointCer {
		t.Errorf("cylinder halo per point (%v) not above cerebral (%v)", perPointCyl, perPointCer)
	}
}

func TestImbalanceGrowsWithTasksOnIrregularGeometry(t *testing.T) {
	// The z(n) law (Eq. 11) is monotone; measured imbalance on an
	// anatomical geometry should trend upward over a wide task sweep.
	dom, err := geometry.Aorta(5)
	if err != nil {
		t.Fatal(err)
	}
	s := solver(t, dom)
	m := lbm.HarveyAccess()
	pSmall, err := RCB(s, 2, m)
	if err != nil {
		t.Fatal(err)
	}
	pLarge, err := RCB(s, 128, m)
	if err != nil {
		t.Fatal(err)
	}
	if pLarge.Imbalance() < pSmall.Imbalance()-0.02 {
		t.Errorf("imbalance did not grow: z(2)=%v z(128)=%v", pSmall.Imbalance(), pLarge.Imbalance())
	}
}

func TestTaskAccessors(t *testing.T) {
	s := cylinderSolver(t)
	p, err := RCB(s, 4, lbm.HarveyAccess())
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Tasks {
		task := &p.Tasks[i]
		if task.Events() != len(task.Sends) {
			t.Errorf("Events() mismatch on task %d", i)
		}
		var want float64
		for _, h := range task.Sends {
			want += h.Bytes()
			if h.Links <= 0 {
				t.Errorf("task %d has empty halo to %d", i, h.Peer)
			}
		}
		if math.Abs(task.TotalSendBytes()-want) > 1e-9 {
			t.Errorf("TotalSendBytes mismatch on task %d", i)
		}
	}
}

func TestHaloBytesUnit(t *testing.T) {
	h := Halo{Peer: 1, Links: 10}
	if got := h.Bytes(); got != 10*lbm.CommBytesPerLink {
		t.Errorf("Halo.Bytes = %v, want %v", got, 10*lbm.CommBytesPerLink)
	}
}
