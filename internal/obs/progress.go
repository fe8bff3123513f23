package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// DefaultProgressInterval is the minimum delay between two rendered
// progress lines.
const DefaultProgressInterval = 250 * time.Millisecond

// Progress draws a CampaignStatus as one live terminal line: done/owned,
// rate, ETA and running per-class counts, redrawn in place (carriage
// return) at a throttled interval so even million-step campaigns pay
// close to nothing for it. It keeps no counts of its own: the tracker
// that holds it decides when a line opens and closes and hands it each
// snapshot to draw, under the tracker's lock and on the tracker's clock.
type Progress struct {
	w        io.Writer
	interval time.Duration
	last     time.Time // the last draw; zero while no line is open
	renders  int
}

// NewProgress returns a line writing to w (stderr is the conventional
// sink) with the given redraw interval; interval 0 means
// DefaultProgressInterval. Hand it to NewCampaignStatus.
func NewProgress(w io.Writer, interval time.Duration) *Progress {
	if interval <= 0 {
		interval = DefaultProgressInterval
	}
	return &Progress{w: w, interval: interval}
}

// draw renders snap over the previous draw, opening the line if none is
// open; owned is the work the run owns (0: unknown, so no percentage).
// final ends the line with a newline and closes it.
func (p *Progress) draw(now time.Time, snap StatusSnapshot, owned int, final bool) {
	var b strings.Builder
	fmt.Fprintf(&b, "\r%s %s  %d", snap.Phase, snap.App, snap.Completed)
	if owned > 0 {
		fmt.Fprintf(&b, "/%d (%.0f%%)", owned, 100*float64(snap.Completed)/float64(owned))
	}
	if snap.ElapsedSeconds > 0 {
		fmt.Fprintf(&b, "  %.1f/s", snap.RatePerSecond)
		if snap.ETASeconds > 0 {
			eta := time.Duration(snap.ETASeconds * float64(time.Second))
			fmt.Fprintf(&b, "  ETA %s", eta.Round(time.Second))
		}
	}
	keys := make([]string, 0, len(snap.Outcomes))
	for k := range snap.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %s=%d", k, snap.Outcomes[k])
	}
	b.WriteString("\x1b[K") // clear to end of line
	if final {
		b.WriteString("\n")
		p.last = time.Time{}
	} else {
		p.last = now
	}
	io.WriteString(p.w, b.String())
	p.renders++
}
