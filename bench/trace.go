package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/letgo-hpc/letgo/internal/obs"
)

// The traced pass attaches an in-memory hub (registry + emitter) to every
// campaign and fabric worker and wraps each driver call in a span of the
// benchmark's own. Program spans carry only a name and a duration, so
// the buffer the emitter writes into stamps each one with its arrival
// time (= span end) and with the driver span open at that moment; that
// is all the start/end/parent information a trace line needs, taken
// from outside the program. Everything stays in memory until the pass
// ends.

// spanRec is one span in a trace: a driver span (ID != 0) or a program
// span (ID == 0) attributed to the driver span that was open when it
// ended. Times are seconds since the tracer started.
type spanRec struct {
	Kind     string            `json:"kind"` // "driver" | "program"
	ID       int               `json:"id,omitempty"`
	Parent   int               `json:"parent"`
	Hub      string            `json:"hub,omitempty"`
	Name     string            `json:"name"`
	Campaign string            `json:"campaign,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Start    float64           `json:"start_s"`
	End      float64           `json:"end_s"`
}

func (s spanRec) seconds() float64 { return s.End - s.Start }

// tracer owns the hubs and driver spans of one traced pass. A nil tracer
// (the untraced passes) hands out nil hubs and nil spans, so workload
// code never branches on tracing.
type tracer struct {
	t0   time.Time
	cur  atomic.Int64 // ID of the innermost open driver span
	hubs []*hubTrace

	mu     sync.Mutex
	nextID int
	driver []spanRec
}

// hubTrace is one in-memory hub: the driver's, or one fabric worker's.
type hubTrace struct {
	name string
	tr   *tracer
	reg  *obs.Registry
	hub  *obs.Hub

	mu    sync.Mutex
	lines []stampedLine
}

type stampedLine struct {
	at     time.Duration // since tracer.t0, taken when the span ended
	parent int
	raw    []byte
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newHub creates a named hub; nil tracer gives a nil hub.
func (t *tracer) newHub(name string) *obs.Hub {
	if t == nil {
		return nil
	}
	h := &hubTrace{name: name, tr: t, reg: obs.NewRegistry()}
	h.hub = &obs.Hub{Reg: h.reg, Em: obs.NewEmitter(h)}
	t.hubs = append(t.hubs, h)
	return h.hub
}

var spanTypeTag = []byte(`"type":"span"`)

// Write receives one emitter line. Only span events are kept: the other
// event types (signals, heuristics, give-ups) are the hub's normal
// traffic and stay part of the measured tracing overhead, but the trace
// file is a span file.
func (h *hubTrace) Write(p []byte) (int, error) {
	if bytes.Contains(p, spanTypeTag) {
		l := stampedLine{
			at:     time.Since(h.tr.t0),
			parent: int(h.tr.cur.Load()),
			raw:    append([]byte(nil), p...),
		}
		h.mu.Lock()
		h.lines = append(h.lines, l)
		h.mu.Unlock()
	}
	return len(p), nil
}

// driverSpan is an open driver span.
type driverSpan struct {
	tr    *tracer
	rec   spanRec
	outer int64
}

// start opens a driver span under the currently open one. Driver calls
// are sequential, so the open spans form a stack.
func (t *tracer) start(name, campaign string) *driverSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	outer := t.cur.Swap(int64(id))
	return &driverSpan{tr: t, outer: outer, rec: spanRec{
		Kind: "driver", ID: id, Parent: int(outer), Name: name, Campaign: campaign,
		Start: time.Since(t.t0).Seconds(),
	}}
}

func (s *driverSpan) end() {
	if s == nil {
		return
	}
	s.rec.End = time.Since(s.tr.t0).Seconds()
	s.tr.cur.Store(s.outer)
	s.tr.mu.Lock()
	s.tr.driver = append(s.tr.driver, s.rec)
	s.tr.mu.Unlock()
}

// spans decodes everything recorded so far: driver spans first, then
// each hub's program spans in arrival order.
func (t *tracer) spans() []spanRec {
	t.mu.Lock()
	out := append([]spanRec(nil), t.driver...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	for _, h := range t.hubs {
		h.mu.Lock()
		lines := h.lines
		h.mu.Unlock()
		for _, l := range lines {
			var env struct {
				Event obs.SpanEvent `json:"event"`
			}
			if json.Unmarshal(l.raw, &env) != nil {
				continue
			}
			end := l.at.Seconds()
			out = append(out, spanRec{
				Kind: "program", Parent: l.parent, Hub: h.name,
				Name: env.Event.Name, Attrs: env.Event.Attrs,
				Start: end - env.Event.Seconds, End: end,
			})
		}
	}
	return out
}

// spanTotals sums the registry span histograms of every hub whose name
// passes keep: name -> (seconds, count).
func (t *tracer) spanTotals(keep func(hub string) bool) (sum map[string]float64, count map[string]uint64) {
	sum, count = map[string]float64{}, map[string]uint64{}
	for _, h := range t.hubs {
		if !keep(h.name) {
			continue
		}
		for _, hv := range h.reg.Snapshot().Histograms {
			if hv.Name == obs.SpanHistogram {
				sum[hv.Labels["span"]] += hv.Sum
				count[hv.Labels["span"]] += hv.Count
			}
		}
	}
	return sum, count
}

// counter sums one unlabelled counter across all hubs.
func (t *tracer) counter(name string) uint64 {
	var n uint64
	for _, h := range t.hubs {
		n += h.hub.Counter(name).Value()
	}
	return n
}

func allHubs(string) bool { return true }

// The program's span nesting, by name. worker_chunk spans of one inject
// run side by side, one per injection worker.
var spanChildren = map[string][]string{
	"golden":       {"golden_record"},
	"inject":       {"worker_chunk"},
	"worker_chunk": {"execute", "classify"},
	"execute":      {"repair"},
}

// topLevelSpans are the program spans that sit directly under a driver
// call.
var topLevelSpans = map[string]bool{
	"compile": true, "analysis": true, "golden": true, "profile": true,
	"plan": true, "inject": true, "merge": true,
}

// selfTimes returns each span name's self time: its total duration minus
// the part its children cover. lanes[hub] is how many worker_chunk spans
// run side by side under one inject on that hub; hubs named in
// sideBySide run concurrently with each other under one driver span, so
// a driver span is charged their mean. A driver span's children are the
// top-level program spans attributed to it and the driver spans nested
// in it.
func selfTimes(spans []spanRec, lanes map[string]int, sideBySide map[string]bool) map[string]float64 {
	self := map[string]float64{}
	// Program spans: per hub, total by name, then subtract children.
	type hubName struct{ hub, name string }
	total := map[hubName]float64{}
	for _, s := range spans {
		if s.Kind == "program" {
			total[hubName{s.Hub, s.Name}] += s.seconds()
		}
	}
	for hn, sec := range total {
		for _, child := range spanChildren[hn.name] {
			c := total[hubName{hn.hub, child}]
			if child == "worker_chunk" && lanes[hn.hub] > 1 {
				c /= float64(lanes[hn.hub])
			}
			sec -= c
		}
		self[hn.name] += sec
	}
	// Driver spans: duration minus nested driver spans minus attributed
	// top-level program spans.
	covered := map[int]float64{}
	for _, s := range spans {
		switch {
		case s.Kind == "driver":
			covered[s.Parent] += s.seconds()
		case topLevelSpans[s.Name]:
			sec := s.seconds()
			if sideBySide[s.Hub] {
				sec /= float64(len(sideBySide))
			}
			covered[s.Parent] += sec
		}
	}
	for _, s := range spans {
		if s.Kind == "driver" {
			self[s.Name] += s.seconds() - covered[s.ID]
		}
	}
	return self
}

// coverage is the share of wall that lies inside some program span:
// 1 - (driver self time / wall).
func coverage(self map[string]float64, wall float64) float64 {
	if wall <= 0 {
		return 0
	}
	driverSelf := 0.0
	for name, sec := range self {
		if strings.HasPrefix(name, "driver.") {
			driverSelf += sec
		}
	}
	return 1 - driverSelf/wall
}

// writeTrace writes the spans as JSON lines.
func writeTrace(path string, spans []spanRec) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
