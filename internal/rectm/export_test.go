package rectm

// Prior returns what Optimize's first query reads from the recommender:
// the reference column and the stored mean and variance of the row that
// knows only it.
func (r *Recommender) Prior() (ref int, mean, variance []float64) {
	return r.prior.ref, r.prior.mean, r.prior.variance
}
