package inject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/letgo-hpc/letgo/internal/resilience"
)

// ShardSpec names one shard of a campaign split across processes: shard
// Index of Count, 1-based, as written on the command line ("2/3"). The
// zero value means "the whole campaign" (no sharding).
type ShardSpec struct {
	Index int
	Count int
}

// IsZero reports the unsharded (whole-campaign) spec.
func (s ShardSpec) IsZero() bool { return s == ShardSpec{} }

// String renders the spec in -shard syntax ("" for the zero spec).
func (s ShardSpec) String() string {
	if s.IsZero() {
		return ""
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// Validate rejects malformed specs: a zero or negative shard count, a
// zero index (shards are 1-based, matching the CLI syntax), or an index
// past the count.
func (s ShardSpec) Validate() error {
	if s.IsZero() {
		return nil
	}
	switch {
	case s.Count <= 0:
		return fmt.Errorf("inject: shard count must be positive, got %d", s.Count)
	case s.Index <= 0:
		return fmt.Errorf("inject: shard index is 1-based, got %d", s.Index)
	case s.Index > s.Count:
		return fmt.Errorf("inject: shard index %d exceeds shard count %d", s.Index, s.Count)
	}
	return nil
}

// ParseShardSpec parses -shard syntax: "i/n" with 1 <= i <= n.
func ParseShardSpec(s string) (ShardSpec, error) {
	bad := func() (ShardSpec, error) {
		return ShardSpec{}, fmt.Errorf("inject: bad shard spec %q (want i/n with 1 <= i <= n)", s)
	}
	i, n, ok := strings.Cut(s, "/")
	if !ok {
		return bad()
	}
	idx, err := strconv.Atoi(i)
	if err != nil {
		return bad()
	}
	cnt, err := strconv.Atoi(n)
	if err != nil {
		return bad()
	}
	spec := ShardSpec{Index: idx, Count: cnt}
	if spec.IsZero() {
		return bad() // "0/0" must not alias the whole-campaign spec
	}
	if err := spec.Validate(); err != nil {
		return ShardSpec{}, err
	}
	return spec, nil
}

// WorkUnit is the output of the pipeline's Shard stage: the set of plan
// indices one Execute invocation is responsible for, tagged with the
// campaign key and the shard identity for journal provenance.
type WorkUnit struct {
	// Key is the campaign the unit belongs to.
	Key resilience.Key
	// Spec is the shard identity (zero for the whole campaign).
	Spec ShardSpec
	// Indices are the owned plan indices, ascending.
	Indices []int

	member []bool // membership over [0, N)
}

// Size returns how many injections the unit owns.
func (u *WorkUnit) Size() int { return len(u.Indices) }

// Has reports whether plan index i belongs to the unit.
func (u *WorkUnit) Has(i int) bool {
	return i >= 0 && i < len(u.member) && u.member[i]
}

// Unit builds a work unit over an explicit set of plan indices — the
// dynamic-dispatch analogue of Shard, used by fabric workers executing
// coordinator-leased units that are not round-robin slices. Indices are
// deduplicated and sorted; any index outside [0, len(Plans)) is an
// error. The unit carries the zero ShardSpec: its identity lives in the
// journal writer stamp the caller chooses, not in shard arithmetic.
func (p *PlannedCampaign) Unit(indices []int) (*WorkUnit, error) {
	n := len(p.Plans)
	u := &WorkUnit{Key: p.Key, member: make([]bool, n)}
	for _, i := range indices {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("inject: unit index %d outside plan [0, %d)", i, n)
		}
		if u.member[i] {
			continue
		}
		u.member[i] = true
		u.Indices = append(u.Indices, i)
	}
	sort.Ints(u.Indices)
	return u, nil
}

// Shard is the pipeline's Shard stage: a deterministic partition of the
// planned injections into Count work units, keyed only by the plan's
// campaign key and N. Plan index j belongs to shard i iff
// j mod Count == i-1 (round-robin), so every process that plans the same
// campaign derives the same partition without coordination, the units
// are disjoint, cover every index, and differ in size by at most one.
// The zero spec yields the whole-campaign unit.
func (p *PlannedCampaign) Shard(spec ShardSpec) (*WorkUnit, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := len(p.Plans)
	if spec.IsZero() {
		return wholeUnit(p.Key, n), nil
	}
	u := &WorkUnit{Key: p.Key, Spec: spec, member: make([]bool, n)}
	for i := spec.Index - 1; i < n; i += spec.Count {
		u.Indices = append(u.Indices, i)
		u.member[i] = true
	}
	return u, nil
}

// wholeUnit is the unsharded unit: every index in [0, n).
func wholeUnit(key resilience.Key, n int) *WorkUnit {
	u := &WorkUnit{Key: key, Indices: make([]int, n), member: make([]bool, n)}
	for i := range u.Indices {
		u.Indices[i] = i
		u.member[i] = true
	}
	return u
}
