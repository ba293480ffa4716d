// Package mlmetrics provides the evaluation metrics and tuning utilities of
// §VII-C: precision, recall and F1 (the paper's primary metrics, chosen over
// accuracy because of the extreme label imbalance), Shannon entropy of score
// distributions (used by adaptive filtering and entropy-ordered resolution),
// and grid search over hyper-parameters on a withheld validation set.
package mlmetrics

import "math"

// PRF bundles precision, recall and F1.
type PRF struct {
	Precision float64
	Recall    float64
	F1        float64
}

// NewPRF computes precision/recall/F1 from true-positive, false-positive and
// false-negative counts. Empty denominators yield 0, not NaN.
func NewPRF(tp, fp, fn int) PRF {
	var p, r, f float64
	if tp+fp > 0 {
		p = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		r = float64(tp) / float64(tp+fn)
	}
	if p+r > 0 {
		f = 2 * p * r / (p + r)
	}
	return PRF{Precision: p, Recall: r, F1: f}
}

// Counts accumulates binary decision outcomes.
type Counts struct{ TP, FP, FN, TN int }

// Add records one prediction/gold pair.
func (c *Counts) Add(predicted, gold bool) {
	switch {
	case predicted && gold:
		c.TP++
	case predicted && !gold:
		c.FP++
	case !predicted && gold:
		c.FN++
	default:
		c.TN++
	}
}

// PRF converts the counts to precision/recall/F1.
func (c Counts) PRF() PRF { return NewPRF(c.TP, c.FP, c.FN) }

// Entropy returns the Shannon entropy (nats) of a discrete distribution.
// The input need not be normalized; zero-total input yields 0.
func Entropy(weights []float64) float64 {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, w := range weights {
		if w <= 0 {
			continue
		}
		p := w / total
		h -= p * math.Log(p)
	}
	return h
}

// NormalizedEntropy returns entropy divided by log(n), mapping to [0,1]
// regardless of the support size; n ≤ 1 yields 0.
func NormalizedEntropy(weights []float64) float64 {
	n := 0
	for _, w := range weights {
		if w > 0 {
			n++
		}
	}
	if n <= 1 {
		return 0
	}
	return Entropy(weights) / math.Log(float64(n))
}

// Normalize scales weights to sum to 1 in place and returns them. A
// zero-total input becomes the uniform distribution.
func Normalize(weights []float64) []float64 {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		if len(weights) > 0 {
			u := 1 / float64(len(weights))
			for i := range weights {
				weights[i] = u
			}
		}
		return weights
	}
	for i := range weights {
		weights[i] /= total
	}
	return weights
}

// FleissKappa computes Fleiss' kappa for inter-annotator agreement: ratings
// is an items × categories matrix of how many annotators assigned each item
// to each category; every row must sum to the same number of annotators n.
// Used to validate the synthetic annotation protocol against the paper's
// reported κ = 0.6854.
func FleissKappa(ratings [][]int) float64 {
	if len(ratings) == 0 || len(ratings[0]) == 0 {
		return 0
	}
	items := len(ratings)
	cats := len(ratings[0])
	n := 0
	for _, c := range ratings[0] {
		n += c
	}
	if n < 2 {
		return 0
	}

	// Per-item agreement P_i and category proportions p_j.
	var pBar float64
	pj := make([]float64, cats)
	for _, row := range ratings {
		var agree int
		for j, c := range row {
			agree += c * (c - 1)
			pj[j] += float64(c)
		}
		pBar += float64(agree) / float64(n*(n-1))
	}
	pBar /= float64(items)
	var pe float64
	for j := range pj {
		pj[j] /= float64(items * n)
		pe += pj[j] * pj[j]
	}
	if pe == 1 {
		return 1
	}
	return (pBar - pe) / (1 - pe)
}
