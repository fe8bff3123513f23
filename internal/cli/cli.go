// Package cli is the harness the letgo commands share: the telemetry and
// campaign flag groups, opening what they name, the signal/deadline
// context, and the one exit path — so a sink left unpublished or a plane
// left serving on some exit is not something a command can get wrong.
//
// Exit codes, for every command: 0 success, 1 error, 2 bad flags (from
// the flag package), 3 interrupted (partial results were printed and the
// journal, if any, supports -resume).
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/obs/serve"
	"github.com/letgo-hpc/letgo/internal/resilience"
)

const (
	exitErr         = 1
	exitInterrupted = 3
)

// Fatal reports err and exits 1, for a command that holds nothing open.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(exitErr)
}

// Interrupted reports whether err is the invocation's context ending: a
// signal, or the -deadline.
func Interrupted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Tool is one command invocation. The embedded sinks are all-off (every
// obs call a no-op) until Open, and stay so without the flags, which keeps
// stdout byte-identical with and without telemetry.
type Tool struct {
	Name string
	*obs.Sinks
	// Plane is the -serve observability server; nil without the flag.
	Plane *serve.Server
	// Journal is the -journal resume journal every campaign of the
	// invocation shares (keys separate apps and modes); nil without it.
	Journal *resilience.Journal
	// Watchdog is the -watchdog per-injection wall-clock bound.
	Watchdog time.Duration

	metricsOut, eventsJSON, serveAddr, journalPath string
	progress, resume                               bool
	stop                                           []context.CancelFunc
}

// New starts an invocation of the named command.
func New(name string) *Tool { return &Tool{Name: name, Sinks: &obs.Sinks{}} }

// TelemetryFlags registers -metrics-out, -events-json, -progress and, for
// commands that run long enough to watch, -serve.
func (t *Tool) TelemetryFlags(withServe bool) {
	flag.StringVar(&t.metricsOut, "metrics-out", "", "write a metrics dump on exit (Prometheus text; JSON when the path ends in .json)")
	flag.StringVar(&t.eventsJSON, "events-json", "", "stream structured JSONL events to this file")
	flag.BoolVar(&t.progress, "progress", false, "render live progress on stderr")
	if withServe {
		flag.StringVar(&t.serveAddr, "serve", "", "serve the live observability plane on this address (/metrics, /events, /status, /healthz, /debug/pprof)")
	}
}

// CampaignFlags registers -journal, -resume and -watchdog, for commands
// that run fault-injection campaigns.
func (t *Tool) CampaignFlags() {
	flag.StringVar(&t.journalPath, "journal", "", "append completed injections to this JSONL journal (crash-safe; enables -resume)")
	flag.BoolVar(&t.resume, "resume", false, "restore completed injections from the -journal file instead of re-executing them")
	flag.DurationVar(&t.Watchdog, "watchdog", 0, "per-injection wall-clock bound; expired injections are quarantined as C-Hang (0 = off)")
}

// Journaled reports whether -journal or -resume was given (for modes that
// take neither).
func (t *Tool) Journaled() bool { return t.journalPath != "" || t.resume }

// Open opens what the parsed flags name — sinks, the plane, the journal —
// and fails the invocation on the first path or address that cannot be
// used, before any work starts.
func (t *Tool) Open() {
	sinks, err := obs.Open(obs.Options{
		MetricsOut: t.metricsOut, EventsJSON: t.eventsJSON,
		Progress: t.progress, Serve: t.serveAddr != "",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Sinks = sinks
	if t.serveAddr != "" {
		if t.Plane, err = serve.ForSinks(t.serveAddr, t.Sinks); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "%s: observability plane on http://%s (metrics, events, status, healthz, debug/pprof)\n", t.Name, t.Plane.Addr())
	}
	switch {
	case t.resume && t.journalPath == "":
		t.Fatal(fmt.Errorf("-resume requires -journal"))
	case t.resume:
		t.Journal, err = resilience.Open(t.journalPath)
	case t.journalPath != "":
		t.Journal, err = resilience.Create(t.journalPath)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// Context returns the invocation's context: cancelled by SIGINT/SIGTERM
// and, when deadline is positive, after that long. Campaigns under it
// drain their in-flight injections and return partial results.
func (t *Tool) Context(deadline time.Duration) context.Context {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	t.stop = append(t.stop, stop)
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		t.stop = append(t.stop, cancel)
	}
	return ctx
}

// Observe wires a campaign to the invocation: the journal and watchdog
// from the flags, and the hub (nil when every sink is off) the campaign
// writes its telemetry to.
func (t *Tool) Observe(c *inject.Campaign) {
	c.Journal, c.Watchdog, c.Obs = t.Journal, t.Watchdog, t.Hub
}

// Fatal reports err and exits 1.
func (t *Tool) Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", t.Name, err)
	t.exit(exitErr)
}

// Finish ends an invocation that ran: exit 0, or — interrupted — the
// banner (detail says how far it got), the resume hint and exit 3.
func (t *Tool) Finish(interrupted bool, detail string) {
	if !interrupted {
		t.exit(0)
	}
	hint := ""
	if t.Journal != nil {
		hint = fmt.Sprintf(" (resume with -resume -journal %s)", t.Journal.Path())
	}
	fmt.Fprintf(os.Stderr, "%s: interrupted%s%s\n", t.Name, detail, hint)
	t.exit(exitInterrupted)
}

// exit is the only way out once a Tool exists: whatever the code, the
// sinks are published (what was collected up to a failure is what explains
// it) and the plane is shut down so SSE streams end cleanly. An error
// marks the live tally failed, which ends a progress line left open.
func (t *Tool) exit(code int) {
	if code == exitErr {
		t.Status.Failed()
	}
	if err := t.Sinks.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", t.Name, err)
		code = exitErr
	}
	t.Plane.Close()
	for _, stop := range t.stop {
		stop()
	}
	os.Exit(code)
}
