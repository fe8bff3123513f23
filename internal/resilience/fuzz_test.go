package resilience

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalMerge feeds two arbitrary byte blobs to MergeFiles as if
// they were shard journal files. The merge layer ingests whatever the
// filesystem hands it — torn tails from a killed shard, records with
// fields written by a newer binary, or outright garbage — so it must
// never panic and must uphold the journal invariants (one record per
// (key, index), collisions consistent with the writer sets) on whatever
// it manages to parse.
func FuzzJournalMerge(f *testing.F) {
	valid := `{"app":"CLAMR","mode":"letgo-e","n":4,"seed":7,"model":"bitflip","writer":"1/2","index":0,"class":"Benign"}
{"app":"CLAMR","mode":"letgo-e","n":4,"seed":7,"model":"bitflip","writer":"1/2","index":2,"class":"Crash","signal":"SIGSEGV","latency":12,"has_latency":true}
`
	other := `{"app":"CLAMR","mode":"letgo-e","n":4,"seed":7,"model":"bitflip","writer":"2/2","index":1,"class":"SDC"}
{"app":"CLAMR","mode":"letgo-e","n":4,"seed":7,"model":"bitflip","writer":"2/2","index":3,"class":"Benign"}
`
	// Disjoint two-writer shards: the clean path.
	f.Add([]byte(valid), []byte(other))
	// Torn tail: the second file ends mid-record, as after a kill.
	f.Add([]byte(valid), []byte(other[:len(other)-25]))
	// Appended then torn: a rewritten prefix, one appended chunk, and a
	// second append cut mid-line by a kill — what Flush's append path
	// can leave behind.
	f.Add([]byte(valid+other[:len(other)-40]), []byte(other))
	// Unknown fields from a future binary must be tolerated, not fatal.
	f.Add([]byte(`{"app":"A","mode":"m","n":1,"seed":1,"model":"x","index":0,"class":"Benign","future_field":{"nested":true}}`+"\n"), []byte(valid))
	// Colliding writers (identical and conflicting payloads).
	f.Add([]byte(valid), []byte(valid))
	f.Add([]byte(`{"app":"CLAMR","mode":"letgo-e","n":4,"seed":7,"model":"bitflip","writer":"2/2","index":0,"class":"SDC"}`+"\n"), []byte(valid))
	// Garbage and pathological shapes.
	f.Add([]byte("not json at all\x00\xff"), []byte("[]{}\n\n\n"))
	f.Add([]byte(`{"index":-9,"class":""}`+"\n"), []byte(`null`+"\n"))
	f.Add([]byte{}, []byte{})

	f.Fuzz(func(t *testing.T, a, b []byte) {
		dir := t.TempDir()
		pa := filepath.Join(dir, "a.jsonl")
		pb := filepath.Join(dir, "b.jsonl")
		if err := os.WriteFile(pa, a, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pb, b, 0o644); err != nil {
			t.Fatal(err)
		}
		merged, collisions, err := MergeFiles([]string{pa, pb})
		if err != nil {
			// Unreadable input is a reported error, never a panic.
			return
		}
		// Invariants on whatever parsed: the merged journal holds exactly
		// one record per (key, index) …
		seen := map[Key]map[int]bool{}
		for _, r := range merged.Records() {
			if seen[r.Key] == nil {
				seen[r.Key] = map[int]bool{}
			}
			if seen[r.Key][r.Index] {
				t.Fatalf("duplicate (key, index) survived merge: %s index %d", r.Key, r.Index)
			}
			seen[r.Key][r.Index] = true
		}
		// … every collision names at least one writer and a record the
		// merge actually kept …
		for _, c := range collisions {
			if len(c.Writers) == 0 {
				t.Fatalf("collision with no writers: %+v", c)
			}
			if got := merged.Completed(c.Key)[c.Index]; got != c.Kept {
				t.Fatalf("collision Kept %+v, merged holds %+v", c.Kept, got)
			}
		}
		// … and the read-side journal flushes as a no-op.
		if err := merged.Flush(); err != nil {
			t.Fatalf("pathless Flush: %v", err)
		}
	})
}
