package cf

import "math"

// RowSimilarityForTest exposes the dense reference similarity to the
// external test package.
func RowSimilarityForTest(s Similarity, a, b []float64) float64 {
	sim, _ := rowSimilarity(s, a, b)
	return sim
}

// rowSimilarity is the dense reference the prediction kernel's
// knownSimilarity must equal bit for bit: the similarity between two
// partially known rows over their co-rated columns, scanning every column,
// and the overlap size.
func rowSimilarity(s Similarity, a, b []float64) (float64, int) {
	switch s {
	case Cosine:
		dot, na, nb, n := 0.0, 0.0, 0.0, 0
		for i := range a {
			if IsMissing(a[i]) || IsMissing(b[i]) {
				continue
			}
			dot += a[i] * b[i]
			na += a[i] * a[i]
			nb += b[i] * b[i]
			n++
		}
		if na == 0 || nb == 0 {
			return 0, n
		}
		return dot / (math.Sqrt(na) * math.Sqrt(nb)), n
	case Pearson:
		// Means over the overlap.
		sa, sb, n := 0.0, 0.0, 0
		for i := range a {
			if IsMissing(a[i]) || IsMissing(b[i]) {
				continue
			}
			sa += a[i]
			sb += b[i]
			n++
		}
		if n < 2 {
			return 0, n
		}
		ma, mb := sa/float64(n), sb/float64(n)
		dot, na, nb := 0.0, 0.0, 0.0
		for i := range a {
			if IsMissing(a[i]) || IsMissing(b[i]) {
				continue
			}
			da, db := a[i]-ma, b[i]-mb
			dot += da * db
			na += da * da
			nb += db * db
		}
		if na == 0 || nb == 0 {
			return 0, n
		}
		return dot / (math.Sqrt(na) * math.Sqrt(nb)), n
	case Euclidean:
		sum, n := 0.0, 0
		for i := range a {
			if IsMissing(a[i]) || IsMissing(b[i]) {
				continue
			}
			d := a[i] - b[i]
			sum += d * d
			n++
		}
		if n == 0 {
			return 0, 0
		}
		return 1 / (1 + math.Sqrt(sum/float64(n))), n
	}
	return 0, 0
}
