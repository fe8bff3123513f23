package obs

import (
	"io"
	"os"
	"strings"

	"github.com/letgo-hpc/letgo/internal/atomicio"
)

// Options selects which observability sinks a tool invocation opens,
// mirroring the shared CLI flags.
type Options struct {
	// MetricsOut, when non-empty, writes a metrics dump on Close
	// (Prometheus text; JSON when the path ends in .json).
	MetricsOut string
	// EventsJSON, when non-empty, streams JSONL events to the file
	// (atomically published on Close).
	EventsJSON string
	// Progress draws the status tracker as a throttled live line on
	// stderr.
	Progress bool
	// Serve, when true, provisions the live observability plane: the
	// registry is always created, events additionally broadcast through a
	// Fanout for SSE subscribers, and the CampaignStatus tracker backs the
	// /status endpoint. The HTTP server itself is started by the caller
	// (internal/obs/serve) over these sinks.
	Serve bool
}

// Sinks bundles the observability outputs behind the shared CLI flags
// (-metrics-out, -events-json, -progress, -serve). With all flags off
// every field is nil, so callers can wire a Sinks unconditionally: every
// obs call on a nil sink is a no-op and no files are created.
//
// Both file outputs are crash-safe: bytes stream into a temp file next
// to the destination and are renamed into place on Close, so a process
// killed mid-write never leaves a truncated -metrics-out or -events-json
// behind (tail the in-progress stream via the *.tmp* file if needed).
type Sinks struct {
	// Hub carries the registry, emitter and status tracker; nil when
	// everything is off.
	Hub *Hub
	// Fanout broadcasts the event stream to SSE subscribers; nil unless
	// serving.
	Fanout *Fanout
	// Status tracks live campaign state for /status and draws the
	// -progress line; nil unless serving or -progress. It is the tracker
	// Hub.Status carries down the stack.
	Status *CampaignStatus

	metricsPath string
	events      *atomicio.File
}

// Open builds sinks from the selected options. Path errors surface here,
// before a long run: the events temp file is created eagerly, and the
// metrics dump Close writes is probed with a temp file in its directory
// (created and removed; the destination is not touched).
func Open(o Options) (*Sinks, error) {
	s := &Sinks{metricsPath: o.MetricsOut}
	var reg *Registry
	var em *Emitter
	if o.MetricsOut != "" {
		probe, err := atomicio.Create(o.MetricsOut)
		if err != nil {
			return nil, err
		}
		probe.Abort()
	}
	if o.MetricsOut != "" || o.Serve {
		reg = NewRegistry()
	}
	var eventsW io.Writer
	if o.EventsJSON != "" {
		f, err := atomicio.Create(o.EventsJSON)
		if err != nil {
			return nil, err
		}
		s.events = f
		eventsW = f
	}
	if o.Serve || o.Progress {
		var line *Progress
		if o.Progress {
			line = NewProgress(os.Stderr, DefaultProgressInterval)
		}
		s.Status = NewCampaignStatus(line)
	}
	if o.Serve {
		s.Fanout = NewFanout()
		if eventsW != nil {
			eventsW = io.MultiWriter(eventsW, s.Fanout)
		} else {
			eventsW = s.Fanout
		}
	}
	if eventsW != nil {
		em = NewEmitter(eventsW)
	}
	if reg != nil || em != nil || s.Status != nil {
		s.Hub = &Hub{Reg: reg, Em: em, Status: s.Status}
	}
	return s, nil
}

// Close atomically publishes the metrics dump (Prometheus text, or JSON
// when the path ends in .json) and the event stream, returning the first
// error encountered. Safe on a nil or all-off Sinks.
func (s *Sinks) Close() error {
	if s == nil {
		return nil
	}
	var first error
	if s.Hub != nil && s.Hub.Reg != nil && s.metricsPath != "" {
		err := atomicio.WriteFile(s.metricsPath, func(w io.Writer) error {
			if strings.HasSuffix(s.metricsPath, ".json") {
				return s.Hub.Reg.WriteJSON(w)
			}
			return s.Hub.Reg.WritePrometheus(w)
		})
		if first == nil {
			first = err
		}
	}
	if s.events != nil {
		if err := s.Hub.Em.Err(); err != nil {
			s.events.Abort()
			if first == nil {
				first = err
			}
		} else if err := s.events.Commit(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
