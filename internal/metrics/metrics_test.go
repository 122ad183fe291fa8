package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"cohpredict/internal/bitmap"
)

func TestAddBasics(t *testing.T) {
	var c Confusion
	// Node 0 is a TP, node 1 an FP, node 2 an FN, node 3 a TN.
	c.AddBitmaps(bitmap.New(0, 1), bitmap.New(0, 2), 4)
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("counts = %+v", c)
	}
	if c.Decisions() != 4 {
		t.Errorf("Decisions = %d", c.Decisions())
	}
	if got := c.Prevalence(); got != 0.5 {
		t.Errorf("Prevalence = %v", got)
	}
	if got := c.Sensitivity(); got != 0.5 {
		t.Errorf("Sensitivity = %v", got)
	}
	if got := c.PVP(); got != 0.5 {
		t.Errorf("PVP = %v", got)
	}
	if got := c.Specificity(); got != 0.5 {
		t.Errorf("Specificity = %v", got)
	}
	if got := c.PVN(); got != 0.5 {
		t.Errorf("PVN = %v", got)
	}
}

func TestZeroDenominators(t *testing.T) {
	var c Confusion
	for name, got := range map[string]float64{
		"Prevalence":  c.Prevalence(),
		"Sensitivity": c.Sensitivity(),
		"PVP":         c.PVP(),
		"Specificity": c.Specificity(),
		"PVN":         c.PVN(),
		"StdErrPVP":   c.StdErrPVP(),
		"StdErrSens":  c.StdErrSensitivity(),
	} {
		if got != 0 {
			t.Errorf("%s on empty = %v, want 0", name, got)
		}
	}
}

func TestAddBitmaps(t *testing.T) {
	var c Confusion
	pred := bitmap.New(0, 1, 2)   // predicts nodes 0,1,2
	actual := bitmap.New(2, 3)    // nodes 2,3 actually read
	c.AddBitmaps(pred, actual, 8) // 8-node machine
	if c.TP != 1 {
		t.Errorf("TP = %d, want 1 (node 2)", c.TP)
	}
	if c.FP != 2 {
		t.Errorf("FP = %d, want 2 (nodes 0,1)", c.FP)
	}
	if c.FN != 1 {
		t.Errorf("FN = %d, want 1 (node 3)", c.FN)
	}
	if c.TN != 4 {
		t.Errorf("TN = %d, want 4 (nodes 4-7)", c.TN)
	}
}

func TestAddBitmapsIgnoresHighBits(t *testing.T) {
	var c Confusion
	c.AddBitmaps(bitmap.New(10), bitmap.New(11), 4)
	if c.Decisions() != 4 || c.TN != 4 {
		t.Errorf("high bits leaked: %+v", c)
	}
}

func TestDegreeOfSharing(t *testing.T) {
	c := Confusion{TP: 8, FN: 8, TN: 144} // 16 of 160 decisions positive
	got := c.DegreeOfSharing(16)
	if math.Abs(got-1.6) > 1e-9 {
		t.Errorf("DegreeOfSharing = %v, want 1.6", got)
	}
}

func TestSharingEvents(t *testing.T) {
	c := Confusion{TP: 5, FP: 7, TN: 1, FN: 2}
	if c.SharingEvents() != 7 {
		t.Errorf("SharingEvents = %d", c.SharingEvents())
	}
}

// Property: AddBitmaps conserves decisions (TP+FP+TN+FN == nodes) and the
// identities TP+FN = |actual|, TP+FP = |predicted| (restricted to nodes).
func TestAddBitmapsProperty(t *testing.T) {
	f := func(p, a uint16) bool {
		var c Confusion
		pred, act := bitmap.Bitmap(p), bitmap.Bitmap(a)
		c.AddBitmaps(pred, act, 16)
		if c.Decisions() != 16 {
			return false
		}
		if c.TP+c.FN != uint64(act.Count()) {
			return false
		}
		return c.TP+c.FP == uint64(pred.Count())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: statistics stay within [0, 1].
func TestStatisticsBounded(t *testing.T) {
	f := func(tp, fp, tn, fn uint16) bool {
		c := Confusion{TP: uint64(tp), FP: uint64(fp), TN: uint64(tn), FN: uint64(fn)}
		for _, v := range []float64{
			c.Prevalence(), c.Sensitivity(), c.PVP(),
			c.Specificity(), c.PVN(),
		} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: prevalence is a weighted bound linking sensitivity and PVP —
// TP ≤ prevalence·decisions and PVP·(TP+FP) == TP, PVP times the
// forwards a predictor sends.
func TestPVPIdentity(t *testing.T) {
	f := func(tp, fp, tn, fn uint8) bool {
		c := Confusion{TP: uint64(tp), FP: uint64(fp), TN: uint64(tn), FN: uint64(fn)}
		forwards := c.TP + c.FP
		if forwards == 0 {
			return c.PVP() == 0
		}
		got := c.PVP() * float64(forwards)
		return math.Abs(got-float64(c.TP)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStdErrs(t *testing.T) {
	c := Confusion{TP: 50, FP: 50, FN: 100}
	want := math.Sqrt(0.25 / 100)
	if got := c.StdErrPVP(); math.Abs(got-want) > 1e-12 {
		t.Errorf("StdErrPVP = %v, want %v", got, want)
	}
	// Sensitivity = 50/150; stderr over 150 trials.
	p := 50.0 / 150.0
	want = math.Sqrt(p * (1 - p) / 150)
	if got := c.StdErrSensitivity(); math.Abs(got-want) > 1e-12 {
		t.Errorf("StdErrSensitivity = %v, want %v", got, want)
	}
}

func TestString(t *testing.T) {
	c := Confusion{TP: 1, FP: 2, TN: 3, FN: 4}
	if got := c.String(); got == "" {
		t.Error("String empty")
	}
}
