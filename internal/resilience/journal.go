// Package resilience makes fault-injection campaigns survivable: it keeps
// an append-only JSONL journal of every classified injection so that an
// interrupted campaign — SIGINT, OOM kill, machine reboot — resumes from
// where it stopped instead of restarting from scratch. That is the
// paper's continue-instead-of-restart philosophy applied to the harness
// itself: the journal is the campaign's checkpoint, and resume is its
// restart-from-checkpoint, with the completed-injection set playing the
// role of the minimal resume state.
//
// Determinism makes this exact: campaign plans are derived from the seed
// and classified results are independent of worker count and engine, so
// a killed-and-resumed campaign renders byte-identical tables to an
// uninterrupted one.
package resilience

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"github.com/letgo-hpc/letgo/internal/atomicio"
)

// DefaultFlushEvery is the journal's default chunk size: completed
// injections are buffered and persisted (appended and fsynced) every
// time this many new records accumulate, and always on Flush.
const DefaultFlushEvery = 64

// Key identifies one campaign configuration inside a journal. Records
// only resume a campaign whose key matches exactly, so one journal file
// can safely carry a whole multi-app, multi-mode sweep. The execution
// engine and worker count are deliberately absent: classified results
// are engine- and scheduling-independent, so a campaign killed under one
// engine may resume under the other.
type Key struct {
	App   string `json:"app"`
	Mode  string `json:"mode"`
	N     int    `json:"n"`
	Seed  uint64 `json:"seed"`
	Model string `json:"model"`
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%s n=%d seed=%d model=%s", k.App, k.Mode, k.N, k.Seed, k.Model)
}

// Record is one journaled injection: the campaign it belongs to, the plan
// index, and everything aggregation needs to reconstruct the classified
// result without re-executing it. It is also the body of the campaign's
// in-memory result (inject.Execution), so the journal line, a fabric
// worker's shipment and the injection_executed event carry one value.
type Record struct {
	Key
	// Writer identifies who produced the record — a shard identity like
	// "2/3" for sharded campaigns, "" for single-process runs. It is
	// provenance only: aggregation ignores it, but cross-journal merges
	// use it to tell a legitimate resume (same writer, latest wins) from
	// two shards claiming the same injection index (a collision that must
	// be reported, see MergeFiles).
	Writer string `json:"writer,omitempty"`
	Index  int    `json:"index"` // plan index in [0, N)
	// Class names the Figure-4 outcome class, and Signal the first
	// crash-causing signal ("" when none).
	Class  string `json:"class"`
	Signal string `json:"signal,omitempty"`
	// DestLive says whether the fault's destination register was
	// statically live at the injection site. RepairSafe says whether the
	// site is certified repair-safe: corruption of its destination
	// register cannot reach the app's acceptance check (always false
	// when the app declares no acceptance globals).
	DestLive   bool `json:"dest_live,omitempty"`
	RepairSafe bool `json:"repair_safe,omitempty"`
	// Latency is the injection-to-crash distance in dynamic instructions
	// (valid when HasLatency); Retired counts the instructions the
	// injected run retired.
	Latency    uint64 `json:"latency,omitempty"`
	HasLatency bool   `json:"has_latency,omitempty"`
	Retired    uint64 `json:"retired,omitempty"`
	// Quarantine and Stack document supervisor-assigned outcomes
	// (C-Hang, C-HarnessFault): why the harness gave up on the
	// injection, and the captured panic stack when there was one.
	Quarantine string `json:"quarantine,omitempty"`
	Stack      string `json:"stack,omitempty"`
}

// Journal is a crash-safe log of completed injections. It is safe for
// concurrent use by campaign workers. Records are held in memory and
// persisted in chunks. A persist appends the JSONL lines of the records
// added since the last one and fsyncs, so its cost follows the chunk,
// not the journal. The whole file is rewritten through an atomic
// temp-file rename only where appending would be wrong: the first
// persist after Create or Open (whatever is on disk is unknown, possibly
// torn), after a record already on disk was replaced by a different one
// (latest record wins), and after a failed append.
//
// On disk: every record covered by a persist that returned nil is
// fsynced, and the file is a valid prefix of the log plus at most one
// torn final line — left by a kill mid-append, dropped by Open and
// rewritten away before anything is appended behind it.
type Journal struct {
	mu    sync.Mutex
	path  string
	recs  []Record
	index map[Key]map[int]int // key -> injection index -> recs position
	// recs[:persisted] are on disk, in order, one whole line each (the
	// rest are the records added since the last persist); rewrite says
	// that is no longer (or not known to be) true of the file, so the
	// next persist must replace it instead of appending.
	persisted int
	rewrite   bool
	// openAppend opens the file for appending (nil = openForAppend);
	// tests substitute short writes and failing syncs.
	openAppend func(path string) (appendFile, error)

	// FlushEvery overrides the persistence chunk size (default
	// DefaultFlushEvery). Set it before the first Append.
	FlushEvery int

	// Writer, when non-empty, stamps every appended record that does not
	// already carry a writer identity. Sharded campaigns set it to their
	// shard spec ("2/3") so merges can attribute each record.
	Writer string
}

// New returns an empty in-memory journal with no backing file: Append
// and Flush work (persistence is a no-op), so it serves as a record
// buffer for code that ships records elsewhere — a fabric worker
// collecting a work unit's results before posting them to the
// coordinator, or MergeFiles building its union.
func New() *Journal {
	return &Journal{index: map[Key]map[int]int{}}
}

// Create opens a fresh journal at path, ignoring any existing content
// (the file is only replaced on the first flush). The directory must be
// writable: a probe write runs eagerly so -journal path errors surface
// before a long campaign starts.
func Create(path string) (*Journal, error) {
	j := &Journal{path: path, index: map[Key]map[int]int{}, rewrite: true}
	if err := j.Flush(); err != nil {
		return nil, fmt.Errorf("resilience: journal %s not writable: %w", path, err)
	}
	return j, nil
}

// Open loads the journal at path for resuming. A missing file yields an
// empty journal; a trailing torn or corrupt line (a writer killed
// mid-append, or a foreign producer) is tolerated and dropped with its
// successors. The first persist after Open rewrites the file, so new
// records never land behind a torn tail.
func Open(path string) (*Journal, error) {
	j := &Journal{path: path, index: map[Key]map[int]int{}, rewrite: true}
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return j, nil
	}
	if err != nil {
		return nil, fmt.Errorf("resilience: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			// Torn tail: keep the valid prefix, drop the rest.
			break
		}
		j.add(r)
	}
	if err := sc.Err(); err != nil && !errors.Is(err, bufio.ErrTooLong) {
		return nil, fmt.Errorf("resilience: reading %s: %w", path, err)
	}
	j.persisted = len(j.recs)
	return j, nil
}

// add appends r to the in-memory log, replacing any earlier record for
// the same (key, index) — the latest observation wins. Replacing a line
// already on disk with a different one cannot be done by appending.
func (j *Journal) add(r Record) {
	byIdx := j.index[r.Key]
	if byIdx == nil {
		byIdx = map[int]int{}
		j.index[r.Key] = byIdx
	}
	if pos, ok := byIdx[r.Index]; ok {
		if pos < j.persisted && j.recs[pos] != r {
			j.rewrite = true
		}
		j.recs[pos] = r
		return
	}
	byIdx[r.Index] = len(j.recs)
	j.recs = append(j.recs, r)
}

// Append records one completed injection, persisting the journal when a
// full chunk has accumulated. A nil journal discards everything.
func (j *Journal) Append(r Record) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if r.Writer == "" {
		r.Writer = j.Writer
	}
	j.add(r)
	every := j.FlushEvery
	if every <= 0 {
		every = DefaultFlushEvery
	}
	if len(j.recs)-j.persisted >= every {
		return j.flushLocked()
	}
	return nil
}

// Completed returns the journaled records for one campaign, by injection
// index. The returned map is a snapshot; mutating it does not affect the
// journal. A nil journal has completed nothing.
func (j *Journal) Completed(k Key) map[int]Record {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[int]Record, len(j.index[k]))
	for idx, pos := range j.index[k] {
		out[idx] = j.recs[pos]
	}
	return out
}

// Lookup returns the journaled record for one (campaign, index), if any.
// A nil journal holds nothing.
func (j *Journal) Lookup(k Key, index int) (Record, bool) {
	if j == nil {
		return Record{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	pos, ok := j.index[k][index]
	if !ok {
		return Record{}, false
	}
	return j.recs[pos], true
}

// Records returns a snapshot of the journal's records in log order (after
// latest-record-wins dedup by key and index). Mutating the returned slice
// does not affect the journal.
func (j *Journal) Records() []Record {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Record, len(j.recs))
	copy(out, j.recs)
	return out
}

// Writers returns the distinct writer identities present in the journal,
// sorted ("" — the single-process identity — is included when present).
func (j *Journal) Writers() []string {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	seen := map[string]bool{}
	for _, r := range j.recs {
		seen[r.Writer] = true
	}
	out := make([]string, 0, len(seen))
	for w := range seen {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// Len returns the total number of journaled records across all keys.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.recs)
}

// Path returns the journal's file path ("" for a nil journal).
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Flush persists every record not yet on disk and returns once they are
// fsynced: an append of the new lines, or a whole-file atomic rewrite in
// the cases the Journal comment lists. It is safe to call at any point,
// including after errors and interrupts; a failed Flush keeps every
// record in memory and the next one rewrites. A pathless journal (the
// in-memory result of MergeFiles) flushes as a no-op: it is a read-side
// artifact with nowhere to persist.
func (j *Journal) Flush() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushLocked()
}

func (j *Journal) flushLocked() error {
	if j.path == "" {
		return nil
	}
	var err error
	if j.rewrite {
		err = atomicio.WriteFile(j.path, func(w io.Writer) error {
			bw := bufio.NewWriter(w)
			if err := encodeRecords(bw, j.recs); err != nil {
				return err
			}
			return bw.Flush()
		})
	} else if j.persisted < len(j.recs) {
		err = j.appendLocked(j.recs[j.persisted:])
	}
	// A failed append may have left a torn line behind; only a rewrite
	// restores a file that is known to hold recs[:persisted].
	j.rewrite = err != nil
	if err != nil {
		return err
	}
	j.persisted = len(j.recs)
	return nil
}

// appendFile is what appendLocked needs of the open journal file.
type appendFile interface {
	io.WriteCloser
	Sync() error
}

// openForAppend opens an existing journal file for appending. It never
// creates one: a file that vanished took recs[:persisted] with it, and
// the error sends the next persist down the rewrite path.
func openForAppend(path string) (appendFile, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
}

// appendLocked adds recs to the end of the file as one write and one
// fsync.
func (j *Journal) appendLocked(recs []Record) error {
	var buf bytes.Buffer
	if err := encodeRecords(&buf, recs); err != nil {
		return err
	}
	open := j.openAppend
	if open == nil {
		open = openForAppend
	}
	f, err := open(j.path)
	if err != nil {
		return fmt.Errorf("resilience: %w", err)
	}
	n, err := f.Write(buf.Bytes())
	if err == nil && n < buf.Len() {
		err = io.ErrShortWrite
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("resilience: appending to %s: %w", j.path, err)
	}
	return nil
}

// encodeRecords writes recs as JSONL, the journal's only line format.
func encodeRecords(w io.Writer, recs []Record) error {
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}
