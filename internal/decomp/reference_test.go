package decomp_test

import (
	"fmt"
	"sort"

	"repro/internal/decomp"
	"repro/internal/lbm"
)

// referenceRCB is the decomposer as it stood before the linear-time
// rewrite: every level re-sorts its sites by (coordinate, site number) and
// cuts, every count grows its own tree, and halo links are counted in
// per-task maps. It is kept only as the oracle the differential tests
// and the fuzz target compare decomp.RCB and decomp.RCBSweep against.
func referenceRCB(s *lbm.Sparse, ntasks int, m lbm.AccessModel) (*decomp.Partition, error) {
	n := s.N()
	if ntasks < 1 {
		return nil, fmt.Errorf("reference: ntasks %d must be positive", ntasks)
	}
	if ntasks > n {
		return nil, fmt.Errorf("reference: ntasks %d exceeds fluid sites %d", ntasks, n)
	}
	xs := make([]int32, n)
	ys := make([]int32, n)
	zs := make([]int32, n)
	for si := 0; si < n; si++ {
		x, y, z := s.SiteCoords(si)
		xs[si], ys[si], zs[si] = int32(x), int32(y), int32(z)
	}
	p := &decomp.Partition{NTasks: ntasks, Owner: make([]int32, n)}
	sites := make([]int32, n)
	for i := range sites {
		sites[i] = int32(i)
	}
	referenceBisect(sites, 0, ntasks, xs, ys, zs, p.Owner)
	referenceStats(p, s, m)
	return p, nil
}

func referenceBisect(sites []int32, task0, k int, xs, ys, zs []int32, owner []int32) {
	if k == 1 {
		for _, si := range sites {
			owner[si] = int32(task0)
		}
		return
	}
	minX, maxX := xs[sites[0]], xs[sites[0]]
	minY, maxY := ys[sites[0]], ys[sites[0]]
	minZ, maxZ := zs[sites[0]], zs[sites[0]]
	for _, si := range sites[1:] {
		minX, maxX = min(minX, xs[si]), max(maxX, xs[si])
		minY, maxY = min(minY, ys[si]), max(maxY, ys[si])
		minZ, maxZ = min(minZ, zs[si]), max(maxZ, zs[si])
	}
	coord := xs
	switch {
	case maxY-minY > maxX-minX && maxY-minY >= maxZ-minZ:
		coord = ys
	case maxZ-minZ > maxX-minX && maxZ-minZ > maxY-minY:
		coord = zs
	}
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i], sites[j]
		if coord[a] != coord[b] {
			return coord[a] < coord[b]
		}
		return a < b
	})
	kLeft := k / 2
	cut := len(sites) * kLeft / k
	referenceBisect(sites[:cut], task0, kLeft, xs, ys, zs, owner)
	referenceBisect(sites[cut:], task0+kLeft, k-kLeft, xs, ys, zs, owner)
}

// referenceStats fills p.Tasks from p.Owner in one pass over the sites in
// ascending order, the map-based way, finding each link's far end by its
// coordinates (SiteAt) rather than through any link row.
func referenceStats(p *decomp.Partition, s *lbm.Sparse, m lbm.AccessModel) {
	p.Tasks = make([]decomp.Task, p.NTasks)
	for t := range p.Tasks {
		p.Tasks[t].ID = t
	}
	links := make([]map[int]int, p.NTasks)
	for t := range links {
		links[t] = make(map[int]int)
	}
	for si := 0; si < s.N(); si++ {
		t := int(p.Owner[si])
		task := &p.Tasks[t]
		task.Points++
		task.Bytes += m.PointBytes(s.Vectors(si))
		x, y, z := s.SiteCoords(si)
		for q := 1; q < lbm.NQ; q++ {
			nx := x + lbm.Cx[q]
			if s.Params().PeriodicX {
				nx = (nx + s.NX) % s.NX
			}
			nb := s.SiteAt(nx, y+lbm.Cy[q], z+lbm.Cz[q])
			if nb < 0 {
				continue
			}
			if peer := int(p.Owner[nb]); peer != t {
				links[t][peer]++
			}
		}
	}
	for t := range p.Tasks {
		peers := make([]int, 0, len(links[t]))
		for peer := range links[t] {
			peers = append(peers, peer)
		}
		sort.Ints(peers)
		for _, peer := range peers {
			p.Tasks[t].Sends = append(p.Tasks[t].Sends, decomp.Halo{Peer: peer, Links: links[t][peer]})
		}
	}
}
