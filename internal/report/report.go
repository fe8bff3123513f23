// Package report renders campaign and simulation results in the formats
// the tools expose (-format text|markdown|csv|json): tab-aligned text for
// terminals, GitHub-flavoured markdown tables for reports, CSV for
// spreadsheets and JSON for downstream tooling.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"github.com/letgo-hpc/letgo/internal/checkpoint"
	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/outcome"
)

// Format selects a rendering.
type Format string

// Formats.
const (
	Text     Format = "text"
	Markdown Format = "markdown"
	CSV      Format = "csv"
	JSON     Format = "json"
)

// ParseFormat validates a -format flag value.
func ParseFormat(s string) (Format, error) {
	switch Format(strings.ToLower(s)) {
	case Text:
		return Text, nil
	case Markdown:
		return Markdown, nil
	case CSV:
		return CSV, nil
	case JSON:
		return JSON, nil
	}
	return "", fmt.Errorf("report: unknown format %q (want text, markdown, csv or json)", s)
}

// CampaignRow is the flattened, serializable view of one campaign result
// (the Table-3 row layout).
type CampaignRow struct {
	App                string  `json:"app"`
	Mode               string  `json:"mode"`
	N                  int     `json:"n"`
	Detected           float64 `json:"detected"`
	Benign             float64 `json:"benign"`
	SDC                float64 `json:"sdc"`
	DoubleCrash        float64 `json:"double_crash"`
	CDetected          float64 `json:"c_detected"`
	CBenign            float64 `json:"c_benign"`
	CSDC               float64 `json:"c_sdc"`
	Hang               float64 `json:"hang"`
	CHang              float64 `json:"c_hang"`
	HarnessFault       float64 `json:"harness_fault"`
	CrashRate          float64 `json:"crash_rate"`
	Continuability     float64 `json:"continuability"`
	ContinuedDetected  float64 `json:"continued_detected"`
	ContinuedCorrect   float64 `json:"continued_correct"`
	ContinuedSDC       float64 `json:"continued_sdc"`
	MedianCrashLatency uint64  `json:"median_crash_latency_instrs"`
	GoldenInstructions uint64  `json:"golden_instructions"`
	// Destination-liveness correlation: what fraction of injections hit a
	// statically dead destination register, and the masked (Benign +
	// C-Benign) rate within the dead and live groups.
	DeadDestFrac float64 `json:"dead_dest_frac"`
	MaskedDead   float64 `json:"masked_dead"`
	MaskedLive   float64 `json:"masked_live"`
	// Repair-safety correlation from the memory-dependency analysis: the
	// fraction of injections that hit a certified repair-safe destination
	// site, and the silent-corruption (SDC + C-SDC) rate within the safe
	// and unsafe groups. All zero when the analysis did not run.
	RepairSafeFrac float64 `json:"repair_safe_frac"`
	SDCSafe        float64 `json:"sdc_in_safe"`
	SDCUnsafe      float64 `json:"sdc_in_unsafe"`
	// Derived-checkpoint facts (JSON only).
	DerivedCheckpointBytes uint64 `json:"derived_checkpoint_bytes,omitempty"`
	FullStateBytes         uint64 `json:"full_state_bytes,omitempty"`
	AnalysisRegions        int    `json:"analysis_regions,omitempty"`
	AnalysisLiveRegions    int    `json:"analysis_live_regions,omitempty"`
	// Shard provenance (JSON only; the text/markdown/CSV cells are
	// deliberately unchanged so a merged table stays byte-identical to a
	// single-process one). Shard names the work unit a partial shard row
	// covers; MergedJournals/MergedWriters are a merge's provenance, set
	// on rows produced by merging shard journals.
	Shard          string   `json:"shard,omitempty"`
	MergedJournals int      `json:"merged_journals,omitempty"`
	MergedWriters  []string `json:"merged_writers,omitempty"`
}

// Row flattens a campaign result.
func Row(r *inject.Result) CampaignRow {
	c := &r.Counts
	return CampaignRow{
		App:                r.App,
		Mode:               r.Mode.String(),
		N:                  r.N,
		Detected:           c.Frac(outcome.Detected),
		Benign:             c.Frac(outcome.Benign),
		SDC:                c.Frac(outcome.SDC),
		DoubleCrash:        c.Frac(outcome.DoubleCrash),
		CDetected:          c.Frac(outcome.CDetected),
		CBenign:            c.Frac(outcome.CBenign),
		CSDC:               c.Frac(outcome.CSDC),
		Hang:               c.Frac(outcome.Hang),
		CHang:              c.Frac(outcome.CHang),
		HarnessFault:       c.Frac(outcome.HarnessFault),
		CrashRate:          r.PCrash,
		Continuability:     r.Metrics.Continuability,
		ContinuedDetected:  r.Metrics.ContinuedDetected,
		ContinuedCorrect:   r.Metrics.ContinuedCorrect,
		ContinuedSDC:       r.Metrics.ContinuedSDC,
		MedianCrashLatency: r.MedianCrashLatency(),
		GoldenInstructions: r.GoldenRetired,
		DeadDestFrac:       frac(r.DeadDest.N, r.N),
		MaskedDead:         inject.MaskedFrac(&r.DeadDest),
		MaskedLive:         inject.MaskedFrac(&r.LiveDest),
		RepairSafeFrac:     frac(r.SafeSite.N, r.N),
		SDCSafe:            inject.SDCFrac(&r.SafeSite),
		SDCUnsafe:          inject.SDCFrac(&r.UnsafeSite),

		DerivedCheckpointBytes: r.DerivedBytes,
		FullStateBytes:         r.FullBytes,
		AnalysisRegions:        r.AnalysisRegions,
		AnalysisLiveRegions:    r.AnalysisLiveRegions,

		Shard: r.Shard,
	}
}

func frac(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

var campaignHeaders = []string{
	"app", "mode", "n", "detected", "benign", "sdc", "double_crash",
	"c_detected", "c_benign", "c_sdc", "hang", "c_hang", "harness_fault", "crash_rate",
	"continuability", "continued_correct", "continued_sdc",
	"median_crash_latency", "dead_dest", "masked_dead", "masked_live",
	"repair_safe", "sdc_safe", "sdc_unsafe",
}

func (r CampaignRow) cells() []string {
	pct := func(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }
	return []string{
		r.App, r.Mode, fmt.Sprintf("%d", r.N),
		pct(r.Detected), pct(r.Benign), pct(r.SDC), pct(r.DoubleCrash),
		pct(r.CDetected), pct(r.CBenign), pct(r.CSDC), pct(r.Hang),
		pct(r.CHang), pct(r.HarnessFault), pct(r.CrashRate), pct(r.Continuability), pct(r.ContinuedCorrect),
		pct(r.ContinuedSDC), fmt.Sprintf("%d", r.MedianCrashLatency),
		pct(r.DeadDestFrac), pct(r.MaskedDead), pct(r.MaskedLive),
		pct(r.RepairSafeFrac), pct(r.SDCSafe), pct(r.SDCUnsafe),
	}
}

// Campaigns renders a set of campaign rows in the requested format.
func Campaigns(w io.Writer, format Format, rows []CampaignRow) error {
	return render(w, format, campaignHeaders, rows)
}

// render writes rows in the requested format: the rows themselves as
// JSON, their cells under headers otherwise.
func render[R interface{ cells() []string }](w io.Writer, format Format, headers []string, rows []R) error {
	cells := make([][]string, len(rows))
	for i, r := range rows {
		cells[i] = r.cells()
	}
	switch format {
	case JSON:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rows)
	case CSV:
		cw := csv.NewWriter(w)
		if err := cw.Write(headers); err != nil {
			return err
		}
		for _, c := range cells {
			if err := cw.Write(c); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	case Markdown:
		return markdownTable(w, headers, cells)
	case Text:
		return textTable(w, headers, cells)
	}
	return fmt.Errorf("report: unknown format %q", format)
}

// SimRow is the serializable view of one C/R simulation comparison point.
type SimRow struct {
	App      string  `json:"app"`
	X        float64 `json:"x"`
	XLabel   string  `json:"x_label"`
	Standard float64 `json:"efficiency_standard"`
	LetGo    float64 `json:"efficiency_letgo"`
	Gain     float64 `json:"gain"`
	// Checkpoint cost-model provenance (JSON only; text/CSV cells are
	// unchanged so existing sweep consumers stay byte-stable). Set by
	// AnnotateCkptModel when the sweep used -ckpt-model derived.
	CkptModel              string `json:"ckpt_model,omitempty"`
	DerivedCheckpointBytes uint64 `json:"derived_checkpoint_bytes,omitempty"`
	FullStateBytes         uint64 `json:"full_state_bytes,omitempty"`
}

// AnnotateCkptModel stamps checkpoint cost-model provenance onto sweep
// rows. Only the JSON rendering carries the annotation.
func AnnotateCkptModel(rows []SimRow, model string, derivedBytes, fullBytes uint64) {
	for i := range rows {
		rows[i].CkptModel = model
		rows[i].DerivedCheckpointBytes = derivedBytes
		rows[i].FullStateBytes = fullBytes
	}
}

// SimRows flattens a figure sweep.
func SimRows(app string, xLabel string, pts []checkpoint.Point) []SimRow {
	out := make([]SimRow, len(pts))
	for i, p := range pts {
		out[i] = SimRow{App: app, X: p.X, XLabel: xLabel, Standard: p.Standard, LetGo: p.LetGo, Gain: p.Gain()}
	}
	return out
}

var simHeaders = []string{"app", "x", "efficiency_standard", "efficiency_letgo", "gain"}

func (r SimRow) cells() []string {
	return []string{
		r.App, fmt.Sprintf("%.0f", r.X),
		fmt.Sprintf("%.4f", r.Standard), fmt.Sprintf("%.4f", r.LetGo),
		fmt.Sprintf("%+.4f", r.Gain),
	}
}

// Sims renders simulation sweep rows.
func Sims(w io.Writer, format Format, rows []SimRow) error {
	return render(w, format, simHeaders, rows)
}

// markdownTable writes a GitHub-flavoured markdown table.
func markdownTable(w io.Writer, headers []string, rows [][]string) error {
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(headers, " | ")); err != nil {
		return err
	}
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | ")); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | ")); err != nil {
			return err
		}
	}
	return nil
}

// textTable writes a fixed-width aligned table.
func textTable(w io.Writer, headers []string, rows [][]string) error {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := line(headers); err != nil {
		return err
	}
	for _, r := range rows {
		if err := line(r); err != nil {
			return err
		}
	}
	return nil
}
