package cf

// MF is matrix-factorization CF trained with stochastic gradient descent:
// workloads and configurations are embedded in a d-dimensional latent space
// and a rating is reconstructed as the dot product of the two embeddings
// (§2.2 of the paper). Active rows are folded in by fitting a fresh user
// vector against the frozen item factors.
type MF struct {
	// D is the latent dimensionality.
	D int
	// Epochs is the number of SGD sweeps over the known training cells.
	Epochs int
	// LR is the SGD learning rate; Reg the L2 regularization weight.
	LR, Reg float64
	// Seed makes training deterministic.
	Seed uint64

	q          [][]float64 // item factors, Cols×D
	itemBias   []float64
	globalMean float64
	cols       int
}

// Name implements Predictor.
func (m *MF) Name() string { return "mf" }

func (m *MF) defaults() (d, epochs int, lr, reg float64) {
	d, epochs, lr, reg = m.D, m.Epochs, m.LR, m.Reg
	if d <= 0 {
		d = 8
	}
	if epochs <= 0 {
		epochs = 60
	}
	if lr == 0 {
		lr = 0.02
	}
	if reg == 0 {
		reg = 0.05
	}
	return
}

// Fit implements Predictor: SGD over the known cells with user/item biases.
func (m *MF) Fit(train *Matrix) {
	d, epochs, lr, reg := m.defaults()
	m.cols = train.Cols
	rng := splitmix64(m.Seed + 0x9E3779B97F4A7C15)
	p := randomFactors(&rng, train.Rows, d)
	m.q = randomFactors(&rng, train.Cols, d)
	m.itemBias = make([]float64, train.Cols)
	userBias := make([]float64, train.Rows)

	sum, n := 0.0, 0
	for _, row := range train.Data {
		for _, v := range row {
			if !IsMissing(v) {
				sum += v
				n++
			}
		}
	}
	if n == 0 {
		m.globalMean = 0
		return
	}
	m.globalMean = sum / float64(n)

	for e := 0; e < epochs; e++ {
		for u, row := range train.Data {
			pu := p[u]
			for i, v := range row {
				if IsMissing(v) {
					continue
				}
				qi := m.q[i][:len(pu)]
				pred := m.globalMean + userBias[u] + m.itemBias[i] + dot(pu, qi)
				err := v - pred
				userBias[u] += lr * (err - reg*userBias[u])
				m.itemBias[i] += lr * (err - reg*m.itemBias[i])
				for f, pf := range pu {
					qf := qi[f]
					pu[f] = pf + lr*(err*qf-reg*pf)
					qi[f] = qf + lr*(err*pf-reg*qf)
				}
			}
		}
	}
}

// Predict implements Predictor: folds the active row into the latent space
// by running SGD on a fresh user vector against the frozen item factors,
// then reconstructs every missing rating.
func (m *MF) Predict(active []float64) []float64 {
	out := make([]float64, len(active))
	copy(out, active)
	if m.q == nil || len(active) != m.cols {
		return out
	}
	bu, pu := m.foldIn(active)
	for i := range out {
		if IsMissing(out[i]) {
			out[i] = m.globalMean + bu + m.itemBias[i] + dot(pu, m.q[i])
		}
	}
	return out
}

// PredictFull returns the latent-space reconstruction for every column,
// including those whose rating is known.
func (m *MF) PredictFull(active []float64) []float64 {
	out := make([]float64, len(active))
	if m.q == nil || len(active) != m.cols {
		copy(out, active)
		return out
	}
	bu, pu := m.foldIn(active)
	for i := range out {
		out[i] = m.globalMean + bu + m.itemBias[i] + dot(pu, m.q[i])
	}
	return out
}

// foldIn fits a fresh user bias and factor vector to the active row's known
// ratings against the frozen item factors.
func (m *MF) foldIn(active []float64) (float64, []float64) {
	d, epochs, lr, reg := m.defaults()
	rng := splitmix64(m.Seed + 0xBF58476D1CE4E5B9)
	pu := make([]float64, d)
	for f := range pu {
		pu[f] = (rand01(&rng) - 0.5) * 0.1
	}
	bu := 0.0
	foldEpochs := epochs * 2
	for e := 0; e < foldEpochs; e++ {
		for i, v := range active {
			if IsMissing(v) {
				continue
			}
			qi := m.q[i][:len(pu)]
			pred := m.globalMean + bu + m.itemBias[i] + dot(pu, qi)
			err := v - pred
			bu += lr * (err - reg*bu)
			for f, pf := range pu {
				pu[f] = pf + lr*(err*qi[f]-reg*pf)
			}
		}
	}
	return bu, pu
}

// dot sums a[i]*b[i] front to back; b must be at least as long as a.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

func randomFactors(rng *uint64, n, d int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, d)
		for f := range row {
			row[f] = (rand01(rng) - 0.5) * 0.1
		}
		out[i] = row
	}
	return out
}

// splitmix64 seeds a simple deterministic PRNG state.
func splitmix64(seed uint64) uint64 {
	if seed == 0 {
		seed = 0x106689D45497FDB5
	}
	return seed
}

// rand01 advances the xorshift state and returns a uniform value in [0, 1).
func rand01(state *uint64) float64 {
	x := *state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*state = x
	return float64(x*0x2545F4914F6CDD1D>>11) / float64(1<<53)
}
