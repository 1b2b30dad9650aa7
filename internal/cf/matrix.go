// Package cf implements the Collaborative Filtering machinery of RecTM: the
// Utility Matrix, the rating-distillation normalization (Algorithm 3 of the
// paper) and its baselines, user-based K-Nearest-Neighbours and Matrix
// Factorization predictors, a bagging ensemble that supplies the predictive
// mean and variance needed by Bayesian optimization, and random-search model
// selection with cross-validation.
//
// Conventions: matrices hold *goodness* values or ratings where higher is
// better (minimization KPIs such as execution time are inverted upstream);
// missing entries are NaN.
package cf

import (
	"fmt"
	"math"
)

// Missing is the sentinel for unknown matrix entries.
var Missing = math.NaN()

// IsMissing reports whether v is the missing sentinel.
func IsMissing(v float64) bool { return math.IsNaN(v) }

// Matrix is a dense utility matrix: rows are workloads (users), columns are
// TM configurations (items), entries are ratings/goodness values with NaN
// for unknown cells.
type Matrix struct {
	Rows, Cols int
	Data       [][]float64
}

// NewMatrix returns a rows×cols matrix with every entry missing.
func NewMatrix(rows, cols int) *Matrix {
	d := make([][]float64, rows)
	for i := range d {
		row := make([]float64, cols)
		for j := range row {
			row[j] = Missing
		}
		d[i] = row
	}
	return &Matrix{Rows: rows, Cols: cols, Data: d}
}

// FromRows wraps existing row data (not copied) in a Matrix.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("cf: empty matrix")
	}
	c := len(rows[0])
	for i, r := range rows {
		if len(r) != c {
			return nil, fmt.Errorf("cf: ragged matrix: row %d has %d cols, want %d", i, len(r), c)
		}
	}
	return &Matrix{Rows: len(rows), Cols: c, Data: rows}, nil
}

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	n := NewMatrix(m.Rows, m.Cols)
	for i := range m.Data {
		copy(n.Data[i], m.Data[i])
	}
	return n
}

// Known reports whether entry (u, i) is present.
func (m *Matrix) Known(u, i int) bool { return !IsMissing(m.Data[u][i]) }

// Density returns the fraction of known entries.
func (m *Matrix) Density() float64 {
	known := 0
	for _, row := range m.Data {
		for _, v := range row {
			if !IsMissing(v) {
				known++
			}
		}
	}
	return float64(known) / float64(m.Rows*m.Cols)
}

// RowMax returns the maximum known value of row and whether any entry is
// known.
func RowMax(row []float64) (float64, bool) {
	best, ok := 0.0, false
	for _, v := range row {
		if IsMissing(v) {
			continue
		}
		if !ok || v > best {
			best, ok = v, true
		}
	}
	return best, ok
}

// RowMean returns the mean of the known entries of row and their count.
func RowMean(row []float64) (float64, int) {
	sum, n := 0.0, 0
	for _, v := range row {
		if !IsMissing(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// ColMeans returns per-column means over known entries (0 for empty
// columns).
func (m *Matrix) ColMeans() []float64 {
	means := make([]float64, m.Cols)
	counts := make([]int, m.Cols)
	for _, row := range m.Data {
		for j, v := range row {
			if !IsMissing(v) {
				means[j] += v
				counts[j]++
			}
		}
	}
	for j := range means {
		if counts[j] > 0 {
			means[j] /= float64(counts[j])
		}
	}
	return means
}

// Goodness converts a KPI value to a higher-is-better goodness score.
func Goodness(kpi float64, higherIsBetter bool) float64 {
	if IsMissing(kpi) {
		return Missing
	}
	if higherIsBetter {
		return kpi
	}
	if kpi == 0 {
		return Missing
	}
	return 1 / kpi
}

// GoodnessMatrix converts a KPI matrix to goodness orientation.
func GoodnessMatrix(kpi *Matrix, higherIsBetter bool) *Matrix {
	g := NewMatrix(kpi.Rows, kpi.Cols)
	for u := range kpi.Data {
		for i, v := range kpi.Data[u] {
			g.Data[u][i] = Goodness(v, higherIsBetter)
		}
	}
	return g
}
