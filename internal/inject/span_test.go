package inject

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/letgo-hpc/letgo/internal/obs"
)

// TestCampaignSpanTaxonomy runs a fork-engine campaign with a live hub
// and checks every lifecycle span lands in the per-span-name duration
// histogram with exact quantiles in the Prometheus exposition.
func TestCampaignSpanTaxonomy(t *testing.T) {
	a := testApp(t)
	var events bytes.Buffer
	hub := &obs.Hub{Reg: obs.NewRegistry(), Em: obs.NewEmitter(&events)}
	const n = 40
	c := &Campaign{
		App: a, Mode: LetGoE, N: n, Seed: 7, Workers: 2, Engine: EngineFork,
		Obs: hub,
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}

	spans := map[string]uint64{}
	for _, h := range hub.Reg.Snapshot().Histograms {
		if h.Name == obs.SpanHistogram {
			spans[h.Labels["span"]] = h.Count
		}
	}
	for span, want := range map[string]uint64{
		"compile": 1, "golden": 1, "profile": 1, "plan": 1, "inject": 1,
		"resolve_sites": 1, "worker_chunk": 2, "execute": n, "classify": n,
	} {
		if spans[span] != want {
			t.Errorf("span %q recorded %d durations, want %d (all: %v)",
				span, spans[span], want, spans)
		}
	}

	// The exposition carries exact quantiles for every span series.
	var prom bytes.Buffer
	if err := hub.Reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for _, span := range []string{"compile", "golden", "plan", "execute", "classify"} {
		for _, q := range []string{"0.5", "0.95", "0.99"} {
			want := fmt.Sprintf(`%s{span=%q,quantile=%q}`, obs.SpanHistogram, span, q)
			if !strings.Contains(text, want) {
				t.Errorf("exposition missing %s", want)
			}
		}
	}

	// Spans also flow to the event stream, attrs included.
	stream := events.String()
	for _, want := range []string{
		`"type":"span"`, `"name":"execute"`, `"engine":"fork"`, `"name":"worker_chunk"`,
	} {
		if !strings.Contains(stream, want) {
			t.Errorf("event stream missing %q", want)
		}
	}

	// Campaign-level accounting: the outcome-class counters must sum to n
	// and the campaign duration gauge must be set. Runs cut short at a
	// golden convergence ran in segments, but still count one supervised
	// run each — a completed one — and nothing per segment.
	var outcomes, runs uint64
	for _, cv := range hub.Reg.Snapshot().Counters {
		switch cv.Name {
		case "letgo_outcomes_total":
			outcomes += cv.Value
		case "letgo_runs_total":
			runs += cv.Value
		}
	}
	if outcomes != n || runs != n {
		t.Errorf("letgo_outcomes_total sums to %d and letgo_runs_total to %d, want %d each", outcomes, runs, n)
	}
	es := res.EngineStats
	if es.Converged == 0 || es.InstrsElided == 0 {
		t.Errorf("no run converged with the golden run: %+v", es)
	}
	if completed := hub.Counter("letgo_runs_total", "outcome", "completed").Value(); completed < es.Converged {
		t.Errorf("%d completed runs, fewer than the %d that converged", completed, es.Converged)
	}
	for name, want := range map[string]uint64{
		"letgo_engine_forks_total":                 es.Forks,
		"letgo_engine_converged_total":             es.Converged,
		"letgo_engine_instructions_elided_total":   es.InstrsElided,
		"letgo_engine_instructions_replayed_total": es.InstrsReplayed,
	} {
		if got := hub.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, EngineStats says %d", name, got, want)
		}
	}
	if hub.Reg.Gauge("letgo_campaign_duration_seconds", "app", a.Name).Value() <= 0 {
		t.Error("letgo_campaign_duration_seconds not set")
	}
}
