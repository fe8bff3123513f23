// Package outcome implements the paper's fault-outcome taxonomy (Figure 4)
// and the four effectiveness metrics of Section 5.3.
package outcome

import (
	"fmt"

	"github.com/letgo-hpc/letgo/internal/stats"
)

// Class is one leaf of the Figure-4 outcome tree. The C-* classes exist
// only when LetGo continued a crashing run.
type Class uint8

// Outcome classes.
const (
	// Finished without LetGo intervention.
	Benign   Class = iota // output passes checks and matches the golden run
	SDC                   // output passes checks but differs from the golden run
	Detected              // the application acceptance check caught the error

	// Crash branch.
	Crash       // crashed; no LetGo (or LetGo declined to repair)
	DoubleCrash // LetGo continued the run but it crashed again

	// Continued by LetGo (C-Finished).
	CBenign   // continued; correct output
	CSDC      // continued; undetected incorrect output
	CDetected // continued; acceptance check caught the corruption

	Hang // did not finish within the instruction budget

	// Harness-quarantine classes. These are never produced by Classify:
	// the campaign supervisor assigns them when the harness itself — not
	// the injected program — misbehaves, so the campaign can finish
	// instead of crashing or stalling. They are zero in any undisturbed
	// run, which keeps resumed and uninterrupted campaigns byte-identical.
	CHang        // per-injection wall-clock watchdog expired (forced hang)
	HarnessFault // the worker panicked twice running this injection

	NumClasses // sentinel
)

var classNames = [NumClasses]string{
	"Benign", "SDC", "Detected", "Crash", "DoubleCrash",
	"C-Benign", "C-SDC", "C-Detected", "Hang",
	"C-Hang", "C-HarnessFault",
}

// Classes returns every class, quarantine classes included, in
// declaration (Figure-4) order.
func Classes() []Class {
	all := make([]Class, NumClasses)
	for i := range all {
		all[i] = Class(i)
	}
	return all
}

func (c Class) String() string {
	if c < NumClasses {
		return classNames[c]
	}
	return fmt.Sprintf("class?%d", c)
}

// Quarantined reports whether the class was assigned by the campaign
// supervisor rather than observed from the program (watchdog timeout or
// worker panic).
func (c Class) Quarantined() bool {
	return c == CHang || c == HarnessFault
}

// ParseClass inverts String. It is used to restore classified injections
// from a resume journal.
func ParseClass(s string) (Class, error) {
	for c, name := range classNames {
		if name == s {
			return Class(c), nil
		}
	}
	return 0, fmt.Errorf("outcome: unknown class %q", s)
}

// RunRecord is the raw observation for one fault-injection run, classified
// by Classify.
type RunRecord struct {
	Finished      bool // the program ran to completion
	Hang          bool // instruction budget exceeded
	Repaired      bool // LetGo elided at least one crash during the run
	CheckPassed   bool // application acceptance check passed (valid if Finished)
	MatchesGolden bool // output bit/tolerance-identical to the golden run
}

// Classify maps a run record to its Figure-4 leaf.
func Classify(r RunRecord) Class {
	if r.Hang {
		return Hang
	}
	if !r.Finished {
		if r.Repaired {
			return DoubleCrash
		}
		return Crash
	}
	if r.Repaired {
		switch {
		case !r.CheckPassed:
			return CDetected
		case r.MatchesGolden:
			return CBenign
		default:
			return CSDC
		}
	}
	switch {
	case !r.CheckPassed:
		return Detected
	case r.MatchesGolden:
		return Benign
	default:
		return SDC
	}
}

// Counts accumulates outcome classes for a campaign.
type Counts struct {
	N  int
	By [NumClasses]int
}

// Add records one classified run.
func (c *Counts) Add(cl Class) {
	c.N++
	c.By[cl]++
}

// Merge folds other into c (used by parallel campaign workers).
func (c *Counts) Merge(other Counts) {
	c.N += other.N
	for i := range c.By {
		c.By[i] += other.By[i]
	}
}

// Frac returns the fraction of runs in class cl, normalized by the total
// number of injections (the normalization used in the paper's Table 3).
func (c *Counts) Frac(cl Class) float64 {
	if c.N == 0 {
		return 0
	}
	return float64(c.By[cl]) / float64(c.N)
}

// CI returns the 95% binomial confidence interval for class cl.
func (c *Counts) CI(cl Class) stats.Proportion {
	return stats.BinomialCI95(c.By[cl], c.N)
}

// CrashTotal is the number of runs in the crash branch — the denominator
// of all four Section-5.3 metrics.
func (c *Counts) CrashTotal() int {
	return c.By[Crash] + c.By[DoubleCrash] + c.By[CBenign] + c.By[CSDC] + c.By[CDetected]
}

// Metrics are the four Section-5.3 effectiveness metrics. All values are
// fractions of the crash-branch total, in [0, 1], and Continuability is
// the sum of the other three.
type Metrics struct {
	Continuability    float64 // (C-Pass check + C-Detected) / Crash
	ContinuedDetected float64 // C-Detected / Crash
	ContinuedCorrect  float64 // C-Benign / Crash
	ContinuedSDC      float64 // C-SDC / Crash
}

// ComputeMetrics derives the Section-5.3 metrics from campaign counts.
func ComputeMetrics(c *Counts) Metrics {
	den := float64(c.CrashTotal())
	if den == 0 {
		return Metrics{}
	}
	return Metrics{
		Continuability:    float64(c.By[CBenign]+c.By[CSDC]+c.By[CDetected]) / den,
		ContinuedDetected: float64(c.By[CDetected]) / den,
		ContinuedCorrect:  float64(c.By[CBenign]) / den,
		ContinuedSDC:      float64(c.By[CSDC]) / den,
	}
}

func (m Metrics) String() string {
	return fmt.Sprintf("continuability=%.3f detected=%.3f correct=%.3f sdc=%.3f",
		m.Continuability, m.ContinuedDetected, m.ContinuedCorrect, m.ContinuedSDC)
}
