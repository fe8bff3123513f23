package resilience

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func mergeKey() Key {
	return Key{App: "CLAMR", Mode: "letgo-e", N: 9, Seed: 7, Model: "bitflip"}
}

// writeJournal persists a journal holding the given records at path.
func writeJournal(t *testing.T, path string, recs ...Record) {
	t.Helper()
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeFilesDisjointShards(t *testing.T) {
	k := mergeKey()
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	writeJournal(t, a,
		Record{Key: k, Writer: "1/2", Index: 0, Class: "Benign"},
		Record{Key: k, Writer: "1/2", Index: 2, Class: "Crash", Signal: "SIGSEGV"},
	)
	writeJournal(t, b,
		Record{Key: k, Writer: "2/2", Index: 1, Class: "SDC"},
		Record{Key: k, Writer: "2/2", Index: 3, Class: "Benign"},
	)
	merged, collisions, err := MergeFiles([]string{b, a}) // order must not matter
	if err != nil {
		t.Fatal(err)
	}
	if len(collisions) != 0 {
		t.Fatalf("disjoint shards produced collisions: %v", collisions)
	}
	if merged.Len() != 4 {
		t.Fatalf("merged %d records, want 4", merged.Len())
	}
	done := merged.Completed(k)
	for idx, class := range map[int]string{0: "Benign", 1: "SDC", 2: "Crash", 3: "Benign"} {
		if done[idx].Class != class {
			t.Errorf("index %d class %q, want %q", idx, done[idx].Class, class)
		}
	}
	if got, want := merged.Writers(), []string{"1/2", "2/2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Writers() = %v, want %v", got, want)
	}
	// Keys differing in any field stay separate.
	if other := merged.Completed(Key{App: "other"}); len(other) != 0 {
		t.Errorf("foreign key resolved %d records", len(other))
	}
}

func TestMergeFilesIdenticalCollision(t *testing.T) {
	k := mergeKey()
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	// Two writers claim index 1 with byte-identical payloads — the
	// deterministic-overlap case. Reported, but flagged benign.
	writeJournal(t, a, Record{Key: k, Writer: "1/2", Index: 1, Class: "SDC"})
	writeJournal(t, b, Record{Key: k, Writer: "2/2", Index: 1, Class: "SDC"})
	_, collisions, err := MergeFiles([]string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(collisions) != 1 {
		t.Fatalf("got %d collisions, want 1: %v", len(collisions), collisions)
	}
	col := collisions[0]
	if !col.Identical {
		t.Errorf("identical payloads flagged as conflicting: %+v", col)
	}
	if want := []string{"1/2", "2/2"}; !reflect.DeepEqual(col.Writers, want) {
		t.Errorf("collision writers %v, want %v", col.Writers, want)
	}
	if col.Index != 1 || col.Key != k {
		t.Errorf("collision at %s index %d, want %s index 1", col.Key, col.Index, k)
	}
}

func TestMergeFilesConflictingCollision(t *testing.T) {
	k := mergeKey()
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	// Two writers disagree about index 1 — a partitioning bug. The merge
	// must surface it instead of silently letting the last record win.
	writeJournal(t, a, Record{Key: k, Writer: "1/2", Index: 1, Class: "SDC"})
	writeJournal(t, b, Record{Key: k, Writer: "2/2", Index: 1, Class: "Benign"})
	merged, collisions, err := MergeFiles([]string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(collisions) != 1 {
		t.Fatalf("got %d collisions, want 1: %v", len(collisions), collisions)
	}
	col := collisions[0]
	if col.Identical {
		t.Errorf("conflicting payloads flagged identical: %+v", col)
	}
	// Kept mirrors what the merged journal actually resolved to.
	if got := merged.Completed(k)[1]; got != col.Kept {
		t.Errorf("Kept %+v does not match merged record %+v", col.Kept, got)
	}
}

func TestMergeFilesStaleCopySameWriter(t *testing.T) {
	k := mergeKey()
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	// The same writer disagreeing with itself across two files (a stale
	// journal copy swept into the merge glob) is a collision too.
	writeJournal(t, a, Record{Key: k, Writer: "1/2", Index: 0, Class: "Benign"})
	writeJournal(t, b, Record{Key: k, Writer: "1/2", Index: 0, Class: "Crash"})
	_, collisions, err := MergeFiles([]string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(collisions) != 1 || collisions[0].Identical {
		t.Fatalf("stale-copy conflict not reported: %v", collisions)
	}
}

func TestMergeFilesMissingAndEmpty(t *testing.T) {
	k := mergeKey()
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	writeJournal(t, a, Record{Key: k, Writer: "1/1", Index: 0, Class: "Benign"})
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	merged, collisions, err := MergeFiles([]string{
		a, empty, filepath.Join(dir, "missing.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(collisions) != 0 || merged.Len() != 1 {
		t.Fatalf("merge with missing/empty inputs: %d records, %v", merged.Len(), collisions)
	}
}

func TestMergedJournalIsReadSide(t *testing.T) {
	k := mergeKey()
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	writeJournal(t, a, Record{Key: k, Index: 0, Class: "Benign"})
	merged, _, err := MergeFiles([]string{a})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Path() != "" {
		t.Fatalf("merged journal has a path %q", merged.Path())
	}
	// Flush on a pathless journal is a no-op, so the execute facade's
	// deferred Flush cannot fail (or write anywhere) in merge mode.
	if err := merged.Flush(); err != nil {
		t.Fatalf("pathless Flush: %v", err)
	}
}

func TestWriterStamping(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Writer = "2/3"
	k := mergeKey()
	if err := j.Append(Record{Key: k, Index: 0, Class: "Benign"}); err != nil {
		t.Fatal(err)
	}
	// A record that already names its writer keeps it.
	if err := j.Append(Record{Key: k, Writer: "other", Index: 1, Class: "SDC"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := j2.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Writer != "2/3" || recs[1].Writer != "other" {
		t.Errorf("writers = %q, %q; want 2/3, other", recs[0].Writer, recs[1].Writer)
	}
	if got, want := j2.Writers(), []string{"2/3", "other"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Writers() = %v, want %v", got, want)
	}
}

func TestMergeFilesSameJournalTwice(t *testing.T) {
	// The same path listed twice (a sloppy glob, a duplicated CLI arg) is
	// a single writer agreeing with itself: every record merges cleanly
	// and no collision is reported — the writer set has one element and
	// the payloads are identical by construction.
	k := mergeKey()
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	writeJournal(t, a,
		Record{Key: k, Writer: "1/1", Index: 0, Class: "Benign"},
		Record{Key: k, Writer: "1/1", Index: 1, Class: "SDC"},
	)
	merged, collisions, err := MergeFiles([]string{a, a})
	if err != nil {
		t.Fatal(err)
	}
	if len(collisions) != 0 {
		t.Fatalf("self-merge produced collisions: %v", collisions)
	}
	if merged.Len() != 2 {
		t.Fatalf("self-merge holds %d records, want 2", merged.Len())
	}
}

func TestMergeFilesUnreadableFileMidSet(t *testing.T) {
	// An unreadable journal in the middle of the set must fail the whole
	// merge: silently dropping one shard's records would render a table
	// that looks complete and is not. (Distinct from a *missing* file,
	// which Open treats as an empty journal.)
	if os.Getuid() == 0 {
		t.Skip("file permissions do not bind as root")
	}
	k := mergeKey()
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	c := filepath.Join(dir, "c.jsonl")
	writeJournal(t, a, Record{Key: k, Writer: "1/2", Index: 0, Class: "Benign"})
	writeJournal(t, c, Record{Key: k, Writer: "2/2", Index: 1, Class: "SDC"})
	locked := filepath.Join(dir, "b.jsonl")
	writeJournal(t, locked, Record{Key: k, Writer: "3/3", Index: 2, Class: "Benign"})
	if err := os.Chmod(locked, 0o000); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(locked, 0o644) //nolint:errcheck // best-effort cleanup
	if _, _, err := MergeFiles([]string{a, locked, c}); err == nil {
		t.Fatal("merge with an unreadable journal did not error")
	}
}
