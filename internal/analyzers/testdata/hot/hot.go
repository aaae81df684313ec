// Package hot is the perf-budget fixture: two //lint:hot functions and
// one unmarked function the inventory must leave out.
package hot

//lint:hot
func Sum(xs []int) int {
	t := 0
	for _, v := range xs {
		t += v
	}
	return t
}

// Scale multiplies every element in place.
//
//lint:hot
func Scale(xs []float64, k float64) {
	for i := range xs {
		xs[i] *= k
	}
}

func cold() {}
