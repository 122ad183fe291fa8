// Package metrics implements the screening-test statistics the paper borrows
// from epidemiological screening and polygraph testing (paper §4, Table 2):
// prevalence, sensitivity, and the predictive value of a positive test (PVP),
// plus the related specificity and PVN which the paper defines but does not
// plot, and Gastwirth's precision analysis for low-prevalence tests.
//
// Every prediction event contributes one binary decision per node: the
// predictor claims the node will or will not read the newly written block,
// and the truth is whether it actually did. Decisions are tallied in a
// Confusion matrix.
package metrics

import (
	"fmt"
	"math"

	"cohpredict/internal/bitmap"
)

// Confusion accumulates the four outcome counts of the paper's Figure 5 Venn
// diagram. The zero value is an empty tally ready for use.
type Confusion struct {
	TP uint64 // predicted sharer, actually read (useful forward)
	FP uint64 // predicted sharer, did not read (wasted forward)
	TN uint64 // predicted non-sharer, did not read
	FN uint64 // predicted non-sharer, actually read (missed opportunity)
}

// AddBitmaps scores a predicted sharing bitmap against the true reader
// bitmap over the low nodes bits, one decision per node.
func (c *Confusion) AddBitmaps(predicted, actual bitmap.Bitmap, nodes int) {
	full := bitmap.Full(nodes)
	p := predicted & full
	a := actual & full
	tp := (p & a).Count()
	fp := (p &^ a).Count()
	fn := (a &^ p).Count()
	c.TP += uint64(tp)
	c.FP += uint64(fp)
	c.FN += uint64(fn)
	c.TN += uint64(nodes - tp - fp - fn)
}

// Decisions returns the total number of binary decisions tallied.
func (c Confusion) Decisions() uint64 { return c.TP + c.FP + c.TN + c.FN }

// SharingEvents returns the number of decisions where sharing actually took
// place (the paper's "dynamic sharing events", Table 6).
func (c Confusion) SharingEvents() uint64 { return c.TP + c.FN }

// ratio returns num/den, or 0 when the denominator is zero (an undefined
// statistic renders as 0, matching how an implementation with no positive
// traffic behaves).
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Prevalence is the base rate of true sharing: (TP+FN) / all decisions.
// It bounds the total possible benefit of any prediction scheme.
func (c Confusion) Prevalence() float64 { return ratio(c.TP+c.FN, c.Decisions()) }

// Sensitivity is TP/(TP+FN): how much of the true sharing the scheme
// captured. An insensitive predictor misses forwarding opportunities.
func (c Confusion) Sensitivity() float64 { return ratio(c.TP, c.TP+c.FN) }

// PVP is the predictive value of a positive test, TP/(TP+FP): the fraction
// of data-forwarding traffic that is useful. Prior studies called this
// "prediction accuracy".
func (c Confusion) PVP() float64 { return ratio(c.TP, c.TP+c.FP) }

// Specificity is TN/(TN+FP): how well the scheme avoids forwarding to
// non-readers. Defined in the paper's sources but not plotted there.
//
//predlint:ignore testonly the paper defines specificity with its screening statistics (§4, Table 2)
func (c Confusion) Specificity() float64 { return ratio(c.TN, c.TN+c.FP) }

// PVN is the predictive value of a negative test, TN/(TN+FN).
//
//predlint:ignore testonly the paper defines PVN with its screening statistics (§4, Table 2)
func (c Confusion) PVN() float64 { return ratio(c.TN, c.TN+c.FN) }

// DegreeOfSharing converts prevalence on an n-node machine into the
// Weber–Gupta "degree of sharing" (average readers per write): prevalence
// times n. The paper reports 9.19% average prevalence as degree 1.5 on 16
// nodes.
func (c Confusion) DegreeOfSharing(nodes int) float64 {
	return c.Prevalence() * float64(nodes)
}

// String summarises the matrix and headline statistics.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d prev=%.4f sens=%.4f pvp=%.4f",
		c.TP, c.FP, c.TN, c.FN, c.Prevalence(), c.Sensitivity(), c.PVP())
}

// Mean returns the arithmetic mean of stat over the confusions — the
// paper's "arithmetic average over all benchmarks" (averaging the
// statistics, not pooling the counts), shared by every cross-benchmark
// summary in the module. An empty slice yields 0.
func Mean(cs []Confusion, stat func(Confusion) float64) float64 {
	if len(cs) == 0 {
		return 0
	}
	var t float64
	for _, c := range cs {
		t += stat(c)
	}
	return t / float64(len(cs))
}

// Precision bounds (Gastwirth 1987). With low prevalence, the sampling error
// of PVP estimates grows: a small absolute error in the false-positive rate
// swamps the few true positives. StdErrPVP returns the standard error of the
// PVP estimate treating each decision as an independent Bernoulli trial —
// the paper cites Gastwirth to warn that low prevalence "compounds the
// errors in measuring the accuracy of a prediction scheme".
func (c Confusion) StdErrPVP() float64 {
	n := c.TP + c.FP
	if n == 0 {
		return 0
	}
	p := c.PVP()
	return math.Sqrt(p * (1 - p) / float64(n))
}

// StdErrSensitivity returns the standard error of the sensitivity estimate.
func (c Confusion) StdErrSensitivity() float64 {
	n := c.TP + c.FN
	if n == 0 {
		return 0
	}
	p := c.Sensitivity()
	return math.Sqrt(p * (1 - p) / float64(n))
}
