package fabric

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/resilience"
)

// Distribution says how an invocation's campaigns are spread over
// processes. Its settings map one-to-one onto letgo-inject's flags, and
// all of them render the same tables. The zero value runs each campaign
// whole, in this process.
type Distribution struct {
	// Shard executes only work unit i/n of each campaign, into the
	// session's journal (-shard).
	Shard inject.ShardSpec
	// Merge, when non-nil, executes nothing: campaigns render from the
	// union of these shard journals (-merge). Empty means none matched,
	// which the caller refuses in its own words.
	Merge []string
	// Coordinate is the address to serve the work queue on to remote
	// Workers, whose records land in the session's journal (-coordinate).
	Coordinate string
	// Options configure the coordinator; their Hub also receives a
	// merge's letgo_merge_* counters and /status merge fields.
	Options Options
}

// Check refuses settings that cannot run together, and a journal where
// a setting needs one or takes none; journaled says whether Open will be
// given one. Open applies it; a command calls it before opening its
// journal, so a refused invocation writes nothing.
func (d Distribution) Check(journaled bool) error {
	shard, merge := !d.Shard.IsZero(), d.Merge != nil
	switch {
	case d.Coordinate != "" && (shard || merge):
		return fmt.Errorf("-coordinate/-worker replace static -shard/-merge partitioning; the flags are mutually exclusive")
	case d.Coordinate != "" && !journaled:
		return fmt.Errorf("-coordinate requires -journal (the journal is the coordinator's crash-safe state)")
	case shard && merge:
		return fmt.Errorf("-merge and -shard are mutually exclusive")
	case shard && !journaled:
		return fmt.Errorf("-shard requires -journal (the shard journal is what -merge consumes)")
	case merge && journaled:
		return fmt.Errorf("-merge reads shard journals; it takes no -journal or -resume")
	}
	return nil
}

// Session is an opened Distribution. It runs campaigns one at a time.
type Session struct {
	shard   inject.ShardSpec
	journal *resilience.Journal // the caller's: shard output or coordinator state

	merged   *resilience.Journal // Merge's union; nil otherwise
	journals int
	writers  []string

	coord *coordinator // nil unless coordinating
	srv   *http.Server
	addr  string
}

// Open checks the distribution (see Check) and readies it: a Merge
// combines its journals, hands each collision to collided (if non-nil)
// and refuses conflicts; a Coordinate serves the coordinator until Close.
func (d Distribution) Open(journal *resilience.Journal, collided func(resilience.Collision)) (*Session, error) {
	if err := d.Check(journal != nil); err != nil {
		return nil, err
	}
	s := &Session{shard: d.Shard, journal: journal}
	switch {
	case d.Merge != nil:
		merged, collisions, err := resilience.MergeFiles(d.Merge)
		if err != nil {
			return nil, err
		}
		conflicting := 0
		for _, col := range collisions {
			if collided != nil {
				collided(col)
			}
			if !col.Identical {
				conflicting++
			}
		}
		if hub := d.Options.Hub; hub != nil {
			hub.Reg.Help("letgo_merge_journals_total", "Shard journal files combined by -merge.")
			hub.Reg.Help("letgo_merge_collisions_total", "Writer-identity collisions across merged shard journals, by kind.")
			hub.Counter("letgo_merge_journals_total").Add(uint64(len(d.Merge)))
			hub.Counter("letgo_merge_collisions_total", "kind", "identical").Add(uint64(len(collisions) - conflicting))
			hub.Counter("letgo_merge_collisions_total", "kind", "conflicting").Add(uint64(conflicting))
			hub.Status.SetMerge(len(d.Merge), len(collisions)-conflicting, conflicting)
		}
		if conflicting > 0 {
			return nil, fmt.Errorf("%d conflicting shard record(s); refusing to merge (shards disagree about the same injection)", conflicting)
		}
		s.merged, s.journals, s.writers = merged, len(d.Merge), merged.Writers()
	case d.Coordinate != "":
		s.coord = NewCoordinator(journal, d.Options)
		ln, err := net.Listen("tcp", d.Coordinate)
		if err != nil {
			return nil, err
		}
		s.srv = &http.Server{Handler: s.coord.Handler()}
		go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Shutdown
		s.addr = ln.Addr().String()
	}
	return s, nil
}

// Run runs one campaign: whole or one shard into the session's journal;
// from the merged journals; or planned here, executed by the fleet, and
// rendered from that plan and the records shipped so far.
func (s *Session) Run(ctx context.Context, c *inject.Campaign) (*inject.Result, error) {
	switch {
	case s.merged != nil:
		return c.MergeContext(ctx, s.merged)
	case s.coord != nil:
		p, err := c.PlanContext(ctx)
		if err != nil {
			return nil, err
		}
		// Interrupted, Coordinate returns ctx's own error; what shipped
		// still renders, so the merge does not run under ctx.
		if err := s.coord.Coordinate(ctx, p.Manifest()); err != nil && err != ctx.Err() {
			return nil, err
		}
		return c.MergePlanned(p, s.journal)
	}
	c.ShardSpec, c.Journal = s.shard, s.journal
	return c.RunContext(ctx)
}

// Merged is a merge's provenance: the journals it combined and the
// writers of their records (0 and nil for the other settings).
func (s *Session) Merged() (journals int, writers []string) { return s.journals, s.writers }

// Addr is the coordinator's bound address ("" unless coordinating).
func (s *Session) Addr() string { return s.addr }

// StatusHandler serves the coordinator's /fabric/status snapshot alone,
// for mounting on another server. Call it only while coordinating.
func (s *Session) StatusHandler() http.Handler { return http.HandlerFunc(s.coord.handleStatus) }

// Close ends the session. A coordinator tells its fleet the invocation
// is over, gives recently seen workers up to 3 s to hear it, then stops
// serving; the other settings hold nothing open.
func (s *Session) Close() {
	if s.coord == nil {
		return
	}
	s.coord.Finish()
	s.coord.awaitDrain(3 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	s.srv.Shutdown(ctx) //nolint:errcheck // the invocation ends either way
}
