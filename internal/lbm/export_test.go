package lbm

import "slices"

// SameLinks reports whether two tables hold the same runs and the same
// rows.
func SameLinks(a, b *Links) bool {
	return slices.Equal(a.runs, b.runs) && slices.Equal(a.rows, b.rows)
}
