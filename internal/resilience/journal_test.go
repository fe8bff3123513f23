package resilience

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func key(app string) Key {
	return Key{App: app, Mode: "LetGo-E", N: 100, Seed: 7, Model: "single-bit"}
}

func rec(k Key, i int, class string) Record {
	return Record{Key: k, Index: i, Class: class, Retired: uint64(1000 + i)}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := key("LULESH"), key("SNAP")
	for i := 0; i < 10; i++ {
		if err := j.Append(rec(k1, i, "Benign")); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(rec(k2, 3, "Crash")); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 11 {
		t.Fatalf("Len = %d, want 11", r.Len())
	}
	done := r.Completed(k1)
	if len(done) != 10 {
		t.Fatalf("completed(k1) = %d records", len(done))
	}
	if got := done[4]; got.Class != "Benign" || got.Retired != 1004 {
		t.Errorf("record 4 = %+v", got)
	}
	if len(r.Completed(k2)) != 1 {
		t.Error("k2 records missing")
	}
	// A different key resumes nothing.
	other := key("LULESH")
	other.Seed = 8
	if len(r.Completed(other)) != 0 {
		t.Error("mismatched key returned records")
	}
}

func TestJournalChunkedFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	j.FlushEvery = 4
	k := key("CLAMR")
	for i := 0; i < 6; i++ {
		if err := j.Append(rec(k, i, "Benign")); err != nil {
			t.Fatal(err)
		}
	}
	// 6 appends with chunk size 4: one automatic flush — the file holds
	// at least the first chunk even though Flush was never called.
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Len(); n < 4 || n >= 6 {
		t.Fatalf("persisted %d records, want a flushed chunk (4..5)", n)
	}
}

func TestJournalTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, _ := Create(path)
	k := key("HPL")
	for i := 0; i < 5; i++ {
		j.Append(rec(k, i, "Benign"))
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write from a foreign producer.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"app":"HPL","index":5,"cla`)
	f.Close()

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 5 {
		t.Fatalf("Len = %d after torn tail, want 5", r.Len())
	}
}

func TestJournalLatestRecordWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, _ := Create(path)
	k := key("COMD")
	j.Append(rec(k, 2, "C-HarnessFault"))
	j.Append(rec(k, 2, "Benign"))
	if j.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (dedup)", j.Len())
	}
	if got := j.Completed(k)[2]; got.Class != "Benign" {
		t.Errorf("latest record lost: %+v", got)
	}
}

func TestJournalConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, _ := Create(path)
	j.FlushEvery = 8
	k := key("PENNANT")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 200; i += 4 {
				j.Append(rec(k, i, "Benign"))
			}
		}(w)
	}
	wg.Wait()
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Completed(k)) != 200 {
		t.Fatalf("completed = %d, want 200", len(r.Completed(k)))
	}
}

func TestCreateUnwritablePath(t *testing.T) {
	if _, err := Create(filepath.Join(t.TempDir(), "missing", "dir", "j.jsonl")); err == nil {
		t.Fatal("Create accepted an unwritable path")
	}
}

func TestOpenMissingFile(t *testing.T) {
	j, err := Open(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil || j.Len() != 0 {
		t.Fatalf("Open(missing) = %v, %v", j, err)
	}
}

func TestNilJournalIsInert(t *testing.T) {
	var j *Journal
	if err := j.Append(Record{}); err != nil {
		t.Error(err)
	}
	if err := j.Flush(); err != nil {
		t.Error(err)
	}
	if j.Completed(Key{}) != nil || j.Len() != 0 || j.Path() != "" {
		t.Error("nil journal not inert")
	}
}

func TestKeyString(t *testing.T) {
	s := key("LULESH").String()
	for _, want := range []string{"LULESH", "LetGo-E", "n=100", "seed=7", "single-bit"} {
		if !strings.Contains(s, want) {
			t.Errorf("Key.String() = %q missing %q", s, want)
		}
	}
}

// Append-only persistence. The tests below pin when the file is appended
// to (same inode, grows by exactly the new lines) and when it is replaced
// (atomic rewrite: a new inode), and that a kill anywhere inside an
// append costs at most the chunk being appended.

func stat(t *testing.T, path string) os.FileInfo {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

// encoded returns the JSONL bytes of recs.
func encoded(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// appendChunk appends records [from, from+n) of k and flushes.
func appendChunk(t *testing.T, j *Journal, k Key, from, n int) []Record {
	t.Helper()
	var recs []Record
	for i := from; i < from+n; i++ {
		r := rec(k, i, "Benign")
		recs = append(recs, r)
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestFlushAppendsKeepSameFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, []byte("stale content\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := stat(t, path)
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	// Create's first flush replaces whatever was there.
	created := stat(t, path)
	if os.SameFile(before, created) || created.Size() != 0 {
		t.Fatalf("Create kept the old file (size %d)", created.Size())
	}

	k := key("LULESH")
	var all []Record
	for chunk := 0; chunk < 3; chunk++ {
		pre := stat(t, path)
		recs := appendChunk(t, j, k, chunk*10, 10)
		all = append(all, recs...)
		post := stat(t, path)
		if !os.SameFile(pre, post) {
			t.Fatalf("chunk %d: flush replaced the file instead of appending", chunk)
		}
		if grew, want := post.Size()-pre.Size(), int64(len(encoded(t, recs))); grew != want {
			t.Fatalf("chunk %d: file grew %d bytes, the new records encode to %d", chunk, grew, want)
		}
	}
	// Nothing new, and an identical re-append: nothing written.
	pre := stat(t, path)
	if err := j.Append(all[3]); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if post := stat(t, path); !os.SameFile(pre, post) || post.Size() != pre.Size() || !post.ModTime().Equal(pre.ModTime()) {
		t.Fatal("a flush with nothing new touched the file")
	}

	// A different record for an index already on disk cannot be appended:
	// latest-record-wins is a rewrite, and exactly one.
	if err := j.Append(rec(k, 3, "SDC")); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	all[3] = rec(k, 3, "SDC")
	replaced := stat(t, path)
	if os.SameFile(pre, replaced) {
		t.Fatal("in-place replacement was not a rewrite")
	}
	appendChunk(t, j, k, 30, 5)
	if !os.SameFile(replaced, stat(t, path)) {
		t.Fatal("flush after the rewrite did not go back to appending")
	}

	// Open: the first flush rewrites, the ones after append.
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Records(); len(got) != 35 || got[3] != all[3] {
		t.Fatalf("reopened %d records, record 3 = %+v", len(got), got[3])
	}
	pre = stat(t, path)
	appendChunk(t, r, k, 35, 5)
	mid := stat(t, path)
	if os.SameFile(pre, mid) {
		t.Fatal("first flush after Open appended to a file of unknown content")
	}
	appendChunk(t, r, k, 40, 5)
	if !os.SameFile(mid, stat(t, path)) {
		t.Fatal("second flush after Open did not append")
	}
	if got, err := Open(path); err != nil || got.Len() != 45 {
		t.Fatalf("final journal: %v records, err %v", got.Len(), err)
	}
}

func TestTornAppendAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	k := key("CLAMR")
	acked := appendChunk(t, j, k, 0, 7)
	ackedSize := stat(t, path).Size()
	last := appendChunk(t, j, k, 7, 5)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(whole)) != ackedSize+int64(len(encoded(t, last))) {
		t.Fatalf("file is %d bytes, want %d + last chunk", len(whole), ackedSize)
	}

	// A kill mid-append leaves any prefix of the last chunk behind.
	for cut := ackedSize; cut <= int64(len(whole)); cut++ {
		torn := filepath.Join(dir, "torn.jsonl")
		if err := os.WriteFile(torn, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(torn)
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		got := r.Records()
		if len(got) < len(acked) || len(got) > len(acked)+len(last) {
			t.Fatalf("cut %d: %d records survive, want %d..%d", cut, len(got), len(acked), len(acked)+len(last))
		}
		// A valid prefix of the log: nothing acknowledged before the
		// torn chunk is lost, and what survives of it is in order.
		for i, r := range got {
			want := rec(k, i, "Benign")
			if r != want {
				t.Fatalf("cut %d: record %d = %+v, want %+v", cut, i, r, want)
			}
		}
		// The resumed campaign re-appends the lost tail and more; the
		// file must then hold exactly the log, no garbage in the middle.
		for i := len(got); i < 15; i++ {
			if err := r.Append(rec(k, i, "Benign")); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Flush(); err != nil {
			t.Fatalf("cut %d: Flush: %v", cut, err)
		}
		data, err := os.ReadFile(torn)
		if err != nil {
			t.Fatal(err)
		}
		if want := encoded(t, r.Records()); !bytes.Equal(data, want) {
			t.Fatalf("cut %d: file after resume is not the log:\n%s\nwant\n%s", cut, data, want)
		}
		if r.Len() != 15 {
			t.Fatalf("cut %d: %d records after resume, want 15", cut, r.Len())
		}
	}
}

// faultyFile fails the way a full or dying disk does: a short write, or
// a write that lands and a sync that does not.
type faultyFile struct {
	f         *os.File
	shortBy   int
	syncFails bool
}

func (f *faultyFile) Write(p []byte) (int, error) {
	if f.shortBy > 0 {
		n, _ := f.f.Write(p[:len(p)-f.shortBy])
		return n, nil // the io.Writer contract broken, as a seam may
	}
	return f.f.Write(p)
}

func (f *faultyFile) Sync() error {
	if f.syncFails {
		return errors.New("injected sync failure")
	}
	return f.f.Sync()
}

func (f *faultyFile) Close() error { return f.f.Close() }

func TestFailedAppendRewritesNext(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault faultyFile
	}{
		{"short write", faultyFile{shortBy: 9}},
		{"failing sync", faultyFile{syncFails: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.jsonl")
			j, err := Create(path)
			if err != nil {
				t.Fatal(err)
			}
			k := key("HPL")
			appendChunk(t, j, k, 0, 4)
			j.FlushEvery = 3
			j.openAppend = func(path string) (appendFile, error) {
				f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					return nil, err
				}
				fault := tc.fault
				fault.f = f
				return &fault, nil
			}
			// The third Append fills the chunk and reports the failure.
			var appendErr error
			for i := 4; i < 7; i++ {
				appendErr = j.Append(rec(k, i, "Benign"))
			}
			if appendErr == nil {
				t.Fatal("a failed append went unreported")
			}
			if j.Len() != 7 {
				t.Fatalf("%d records in memory after the failure, want 7", j.Len())
			}
			// The next flush must not append behind whatever the failure
			// left: it rewrites, so the still-faulty append path is not
			// even tried.
			pre := stat(t, path)
			if err := j.Flush(); err != nil {
				t.Fatal(err)
			}
			if os.SameFile(pre, stat(t, path)) {
				t.Fatal("flush after a failed append appended instead of rewriting")
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := encoded(t, j.Records()); !bytes.Equal(data, want) {
				t.Fatalf("file after recovery:\n%s\nwant\n%s", data, want)
			}
		})
	}
}

func TestAppendToVanishedFileIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	k := key("SNAP")
	appendChunk(t, j, k, 0, 3)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	// Appending the new records alone to a fresh file would silently
	// drop the three already acknowledged.
	j.Append(rec(k, 3, "Benign"))
	if err := j.Flush(); err == nil {
		t.Fatal("append to a vanished journal file succeeded")
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if r, err := Open(path); err != nil || r.Len() != 4 {
		t.Fatalf("after the rewrite: %d records, err %v", r.Len(), err)
	}
}

// BenchmarkFlushChunk is one 10-record shipment (a fabric unit) made
// durable in a journal that already holds 1k / 10k records. The append
// path makes the two read the same; a whole-file rewrite reads ~7x apart.
// Run with a fixed count (-benchtime=200x) so both journals grow alike.
func BenchmarkFlushChunk(b *testing.B) {
	for _, at := range []int{1000, 10_000} {
		b.Run(fmt.Sprintf("at=%d", at), func(b *testing.B) {
			j, err := Create(filepath.Join(b.TempDir(), "j.jsonl"))
			if err != nil {
				b.Fatal(err)
			}
			k := key("LULESH")
			j.FlushEvery = at + 1
			for i := 0; i < at; i++ {
				j.Append(rec(k, i, "Benign"))
			}
			if err := j.Flush(); err != nil {
				b.Fatal(err)
			}
			j.FlushEvery = 1 << 30 // only the explicit Flush persists
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i := 0; i < 10; i++ {
					j.Append(rec(k, at+n*10+i, "Benign"))
				}
				if err := j.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
