package smbo

// EIBound exposes PickNext's pruning bound, and Xorshift01 the Random
// policy's generator, to the external test package.
var (
	EIBound    = eiBound
	Xorshift01 = xorshift01
)

// EIBounds runs the EI policy's bound pass on fresh scratch and returns what
// it stored: every candidate column's σ and, where σ is positive, its bound,
// and the floor (the EI of the candidate with the highest bound).
func EIBounds(row, mean, variance []float64, incumbent float64) (sigma, bound []float64, floor float64) {
	b := new(bounds)
	floor = b.fill(row, mean, variance, incumbent)
	return b.sigma, b.bound, floor
}
