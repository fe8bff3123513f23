package inject

import (
	"bytes"
	"strings"
	"testing"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/outcome"
)

// analysisApp is testApp with acceptance globals declared, so the
// campaign's memory-dependency analysis phase runs.
func analysisApp(t *testing.T) *apps.App {
	a := testApp(t)
	a.CheckGlobals = []string{"iters", "residual", "u"}
	return a
}

// TestCampaignAnalysisPhase runs a campaign against an app with declared
// acceptance globals and checks the derived-analysis surface end to end:
// result fields, per-site repair-safe splits, letgo_analysis_* gauges,
// pass-duration spans and the /status mirror.
func TestCampaignAnalysisPhase(t *testing.T) {
	a := analysisApp(t)
	var events bytes.Buffer
	status := obs.NewCampaignStatus(nil)
	hub := &obs.Hub{Reg: obs.NewRegistry(), Em: obs.NewEmitter(&events), Status: status}
	const n = 40
	c := &Campaign{
		App: a, Mode: LetGoE, N: n, Seed: 11, Workers: 2,
		Obs: hub,
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}

	if res.DerivedBytes == 0 || res.DerivedBytes >= res.FullBytes {
		t.Errorf("derived %d of %d bytes: want a non-empty strict subset", res.DerivedBytes, res.FullBytes)
	}
	if res.AnalysisRegions == 0 || res.AnalysisLiveRegions == 0 ||
		res.AnalysisLiveRegions > res.AnalysisRegions {
		t.Errorf("region counts: %d live of %d", res.AnalysisLiveRegions, res.AnalysisRegions)
	}
	if res.SafeSite.N+res.UnsafeSite.N != res.Completed {
		t.Errorf("safe/unsafe split %d+%d != completed %d",
			res.SafeSite.N, res.UnsafeSite.N, res.Completed)
	}
	// The split must agree with the aggregate class counts.
	var merged outcome.Counts
	merged.Merge(res.SafeSite)
	merged.Merge(res.UnsafeSite)
	if merged.By != res.Counts.By {
		t.Errorf("safe+unsafe class counts %v != total %v", merged.By, res.Counts.By)
	}

	// Gauges carry the same facts.
	for gauge, want := range map[string]float64{
		"letgo_analysis_regions":                  float64(res.AnalysisRegions),
		"letgo_analysis_live_regions":             float64(res.AnalysisLiveRegions),
		"letgo_analysis_derived_checkpoint_bytes": float64(res.DerivedBytes),
		"letgo_analysis_full_state_bytes":         float64(res.FullBytes),
	} {
		if got := hub.Reg.Gauge(gauge, "app", a.Name).Value(); got != want {
			t.Errorf("%s = %v, want %v", gauge, got, want)
		}
	}
	if hub.Reg.Gauge("letgo_analysis_dest_sites", "app", a.Name).Value() <= 0 {
		t.Error("letgo_analysis_dest_sites not set")
	}

	// Pass durations land in the span histogram as analysis/<pass>, and
	// the analysis phase itself has a lifecycle span.
	spans := map[string]uint64{}
	for _, h := range hub.Reg.Snapshot().Histograms {
		if h.Name == obs.SpanHistogram {
			spans[h.Labels["span"]] = h.Count
		}
	}
	for _, span := range []string{"analysis", "analysis/cfg", "analysis/regions", "analysis/deps"} {
		if spans[span] == 0 {
			t.Errorf("span %q missing from duration histogram (all: %v)", span, spans)
		}
	}

	// The executed-event stream carries the per-injection classification.
	if !strings.Contains(events.String(), `"repair_safe":true`) {
		t.Logf("no injection hit a repair-safe site in %d tries (fine, but unusual)", n)
	}

	// The /status mirror picked up the analysis facts.
	snap := status.Snapshot()
	if snap.DerivedCheckpointBytes != res.DerivedBytes || snap.FullStateBytes != res.FullBytes {
		t.Errorf("status bytes %d/%d, want %d/%d",
			snap.DerivedCheckpointBytes, snap.FullStateBytes, res.DerivedBytes, res.FullBytes)
	}
	if snap.AnalysisRegions != res.AnalysisRegions || snap.AnalysisLiveRegions != res.AnalysisLiveRegions {
		t.Errorf("status regions %d/%d, want %d/%d",
			snap.AnalysisLiveRegions, snap.AnalysisRegions, res.AnalysisLiveRegions, res.AnalysisRegions)
	}
}

// TestCampaignWithoutGlobalsSkipsAnalysis pins the compatibility path:
// apps that declare no acceptance globals run exactly as before — no
// analysis phase, zero-valued derived fields, and empty safe/unsafe
// splits.
func TestCampaignWithoutGlobalsSkipsAnalysis(t *testing.T) {
	a := testApp(t)
	const n = 12
	c := &Campaign{App: a, Mode: LetGoE, N: n, Seed: 3}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DerivedBytes != 0 || res.FullBytes != 0 || res.AnalysisRegions != 0 {
		t.Errorf("analysis fields set without acceptance globals: %+v", res)
	}
	if res.SafeSite.N != 0 || res.UnsafeSite.N != 0 {
		t.Errorf("safe/unsafe split populated without analysis: %d/%d",
			res.SafeSite.N, res.UnsafeSite.N)
	}
}
