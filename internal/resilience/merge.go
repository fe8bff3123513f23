package resilience

import (
	"fmt"
	"sort"
)

// Collision reports that more than one writer identity claimed the same
// (campaign key, injection index) across a set of merged journals. Because
// campaign results are deterministic functions of the plan, two shards
// that legitimately overlap produce byte-identical payloads (Identical);
// a non-identical collision means two writers disagree about the same
// injection — a partitioning or configuration bug that must not be
// resolved silently by last-record-wins.
type Collision struct {
	Key   Key
	Index int
	// Writers lists the distinct writer identities that claimed the
	// index, sorted ("" is the single-process identity).
	Writers []string
	// Identical reports that every colliding record carried the same
	// payload (everything but the writer identity), so the merge result
	// does not depend on which record won.
	Identical bool
	// Kept is the record the merge retained (the last one seen, matching
	// the journal's latest-record-wins rule).
	Kept Record
}

func (c Collision) String() string {
	kind := "conflicting"
	if c.Identical {
		kind = "identical"
	}
	return fmt.Sprintf("%s records for %s index %d from writers %v", kind, c.Key, c.Index, c.Writers)
}

// SamePayload reports whether two records agree on everything except
// their writer identity. This is the collision predicate shared by
// MergeFiles and the fabric coordinator: because campaign results are
// deterministic, records from two writers that legitimately overlap (a
// re-dispatched work unit completed by both the straggler and the thief)
// are payload-identical, and any disagreement is a partitioning or
// configuration bug.
func SamePayload(a, b Record) bool {
	a.Writer, b.Writer = "", ""
	return a == b
}

// MergeFiles loads every journal at the given paths and merges their
// records into one in-memory, pathless journal under the usual
// latest-record-wins rule (paths are processed in sorted order, records
// in log order, so the merge is deterministic for a fixed file set).
// Journals that do not exist are treated as empty, matching Open.
//
// Alongside the merged journal it returns every writer-identity
// collision: cases where records for the same (key, index) came from
// more than one writer. Callers decide the policy — identical collisions
// are benign duplicates (deterministic shards overlapping), while
// non-identical ones should abort the merge.
func MergeFiles(paths []string) (*Journal, []Collision, error) {
	sorted := make([]string, len(paths))
	copy(sorted, paths)
	sort.Strings(sorted)

	merged := New()
	type claim struct {
		writers []string // distinct writers in first-seen order
		agree   bool     // all payloads so far are identical
	}
	claims := map[Key]map[int]*claim{}
	for _, path := range sorted {
		j, err := Open(path)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range j.Records() {
			byIdx := claims[r.Key]
			if byIdx == nil {
				byIdx = map[int]*claim{}
				claims[r.Key] = byIdx
			}
			if cl, ok := byIdx[r.Index]; ok {
				prev := merged.recs[merged.index[r.Key][r.Index]]
				if !SamePayload(prev, r) {
					cl.agree = false
				}
				if !containsString(cl.writers, r.Writer) {
					cl.writers = append(cl.writers, r.Writer)
				}
			} else {
				byIdx[r.Index] = &claim{writers: []string{r.Writer}, agree: true}
			}
			merged.add(r)
		}
	}

	var collisions []Collision
	for key, byIdx := range claims {
		for idx, cl := range byIdx {
			// Two writers claiming one index is always a collision; a
			// single writer disagreeing with itself across files (a
			// stale journal copy) is one too.
			if len(cl.writers) < 2 && cl.agree {
				continue
			}
			writers := make([]string, len(cl.writers))
			copy(writers, cl.writers)
			sort.Strings(writers)
			collisions = append(collisions, Collision{
				Key: key, Index: idx, Writers: writers,
				Identical: cl.agree,
				Kept:      merged.recs[merged.index[key][idx]],
			})
		}
	}
	sort.Slice(collisions, func(a, b int) bool {
		if collisions[a].Key != collisions[b].Key {
			return collisions[a].Key.String() < collisions[b].Key.String()
		}
		return collisions[a].Index < collisions[b].Index
	})
	return merged, collisions, nil
}

func containsString(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
