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
		Obs:      hub,
		Observer: NewObsObserver(a.Name, LetGoE, n, hub, nil, nil),
	}
	if _, err := c.Run(); err != nil {
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
	// and the campaign duration gauge must be set.
	var outcomes uint64
	for _, cv := range hub.Reg.Snapshot().Counters {
		if cv.Name == "letgo_outcomes_total" {
			outcomes += cv.Value
		}
	}
	if outcomes != n {
		t.Errorf("letgo_outcomes_total sums to %d, want %d", outcomes, n)
	}
	if hub.Reg.Gauge("letgo_campaign_duration_seconds", "app", a.Name).Value() <= 0 {
		t.Error("letgo_campaign_duration_seconds not set")
	}
}
