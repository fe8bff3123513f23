package checkpoint

import (
	"fmt"

	"github.com/letgo-hpc/letgo/internal/stats"
)

// Advice is the outcome of the Section-8 operator decision ("Determining
// when/how to use LetGo"): whether enabling LetGo pays off for a given
// application and deployment, quantified by simulated efficiency, and
// whether the projected SDC-rate increase stays inside the operator's
// budget.
type Advice struct {
	UseLetGo bool
	// EffStandard/EffLetGo are the simulated asymptotic efficiencies.
	EffStandard float64
	EffLetGo    float64
	// Gain is EffLetGo - EffStandard.
	Gain float64
	// SDCIncrease is the projected absolute increase in the per-interval
	// undetected-incorrect probability attributable to LetGo-continued
	// intervals: P(crash elided) * P(passes check | continued) beyond the
	// baseline. It is compared against the operator's MaxSDCIncrease.
	SDCIncrease float64
	Reason      string
}

// AdviseConfig carries the operator's inputs beyond the Table-4 model
// parameters.
type AdviseConfig struct {
	// MaxSDCIncrease is the acceptable absolute increase in undetected-
	// incorrect probability per verified interval (the paper: "what is
	// the acceptable increase in the SDC rate"). Zero means 1%.
	MaxSDCIncrease float64
	// MinGain is the efficiency gain below which LetGo is not worth
	// operational complexity. Zero means 0.005 (half a point).
	MinGain float64
	// ContinuedSDC is the Continued_SDC metric from fault injection —
	// the probability a continued crash ends as an undetected incorrect
	// result. Required for the SDC budget check.
	ContinuedSDC float64
	// Horizon is the simulated span; zero means DefaultHorizon.
	Horizon float64
	Seed    uint64
}

// Advise runs both C/R model arms and issues the operator recommendation.
func Advise(p Params, cfg AdviseConfig) (Advice, error) {
	maxSDC := cfg.MaxSDCIncrease
	if maxSDC == 0 {
		maxSDC = 0.01
	}
	minGain := cfg.MinGain
	if minGain == 0 {
		minGain = 0.005
	}
	horizon := cfg.Horizon
	if horizon == 0 {
		horizon = DefaultHorizon
	}

	rng := stats.NewRNG(cfg.Seed)
	std, lg, err := CompareArms(p, rng, horizon, nil)
	if err != nil {
		return Advice{}, err
	}

	a := Advice{
		EffStandard: std.Efficiency(),
		EffLetGo:    lg.Efficiency(),
	}
	a.Gain = a.EffLetGo - a.EffStandard
	// Per fault: probability the fault crashes, is elided, and the
	// continued run slips through verification as an SDC.
	a.SDCIncrease = p.PCrash * p.PLetGo * cfg.ContinuedSDC

	switch {
	case a.SDCIncrease > maxSDC:
		a.UseLetGo = false
		a.Reason = fmt.Sprintf("projected SDC increase %.3f%% exceeds the %.3f%% budget",
			100*a.SDCIncrease, 100*maxSDC)
	case a.Gain < minGain:
		a.UseLetGo = false
		a.Reason = fmt.Sprintf("efficiency gain %.4f below the %.4f threshold", a.Gain, minGain)
	default:
		a.UseLetGo = true
		a.Reason = fmt.Sprintf("efficiency gain %.4f with projected SDC increase %.3f%%",
			a.Gain, 100*a.SDCIncrease)
	}
	return a, nil
}
