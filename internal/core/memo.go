package core

import (
	"slices"
	"sync"

	"repro/internal/decomp"
	"repro/internal/lbm"
	"repro/internal/simcloud"
)

// MaxMemoizedWorkloads bounds an Anatomy's memo: rank counts come from
// requests, so without a cap one lattice could pin a decomposition per
// count ever asked for. A campaign or a serving key asks for a handful.
const MaxMemoizedWorkloads = 32

// workloadMemo remembers the decompositions of one lattice by rank count,
// so predicting, measuring and planning the same (anatomy, ranks) run RCB
// once. It holds at most MaxMemoizedWorkloads, dropping the oldest first;
// a decomposition is a pure function of lattice, access model and rank
// count, so recomputing a dropped one returns the identical workload. The
// zero value is ready to use. The returned workloads share their slices:
// read, do not modify.
type workloadMemo struct {
	mu      sync.Mutex
	byRanks map[int]simcloud.Workload
	oldest  []int // the memoised rank counts, oldest first
	builds  int   // decompositions run
}

// workload returns the RCB decomposition of s over ranks tasks as a
// simulator workload under the given name, decomposing only on a miss.
// Misses on one memo are serialised, so a count is never decomposed twice
// concurrently. Errors are not memoised.
func (m *workloadMemo) workload(name string, s *lbm.Sparse, access lbm.AccessModel, ranks int) (simcloud.Workload, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if w, ok := m.byRanks[ranks]; ok {
		return w, nil
	}
	p, err := decomp.RCB(s, ranks, access)
	if err != nil {
		return simcloud.Workload{}, err
	}
	m.builds++
	w := simcloud.FromPartition(name, s.N(), p)
	if m.byRanks == nil {
		m.byRanks = make(map[int]simcloud.Workload)
	}
	if len(m.oldest) == MaxMemoizedWorkloads {
		delete(m.byRanks, m.oldest[0])
		m.oldest = slices.Delete(m.oldest, 0, 1)
	}
	m.byRanks[ranks] = w
	m.oldest = append(m.oldest, ranks)
	return w, nil
}

// len returns the number of decompositions currently held.
func (m *workloadMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byRanks)
}
