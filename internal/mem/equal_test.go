package mem

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// bytewiseEqual is the oracle for Equal: the same segment table and the
// same bytes, read back through the checked host-side path, over every
// mapped segment.
func bytewiseEqual(t *testing.T, a, b *Memory) bool {
	t.Helper()
	if !reflect.DeepEqual(a.Segments(), b.Segments()) {
		return false
	}
	for _, s := range a.Segments() {
		x, err := a.ReadBytes(s.Base, s.Size)
		if err != nil {
			t.Fatal(err)
		}
		y, err := b.ReadBytes(s.Base, s.Size)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			return false
		}
	}
	return true
}

// checkEqual asserts Equal agrees with the oracle, in both argument orders.
func checkEqual(t *testing.T, what string, a, b *Memory) bool {
	t.Helper()
	want := bytewiseEqual(t, a, b)
	if got := Equal(a, b); got != want {
		t.Fatalf("%s: Equal = %v, bytewise oracle = %v", what, got, want)
	}
	if got := Equal(b, a); got != want {
		t.Fatalf("%s: Equal is not symmetric (reverse = %v, oracle = %v)", what, got, want)
	}
	return want
}

func TestEqualZeroPageVersusUntouched(t *testing.T) {
	a, b := newMapped(t), newMapped(t)
	if !checkEqual(t, "two untouched memories", a, b) {
		t.Fatal("untouched memories differ")
	}
	// a materializes a page holding only zeros; b never touches it.
	if err := a.Write8(0x10008, 0); err != nil {
		t.Fatal(err)
	}
	if !checkEqual(t, "explicit-zero page vs untouched page", a, b) {
		t.Fatal("an explicitly zeroed page differs from an untouched one")
	}
	// The same through a frozen layer, and with a non-zero byte then gone.
	fa := a.Fork()
	if err := fa.Write8(0x10010, 5); err != nil {
		t.Fatal(err)
	}
	if checkEqual(t, "non-zero byte vs untouched page", fa, b) {
		t.Fatal("a written page equals an untouched one")
	}
	if err := fa.Write8(0x10010, 0); err != nil {
		t.Fatal(err)
	}
	if !checkEqual(t, "re-zeroed page vs untouched page", fa, b) {
		t.Fatal("a page written back to zero differs from an untouched one")
	}
}

func TestEqualSegmentTables(t *testing.T) {
	a, b := newMapped(t), newMapped(t)
	if err := b.Map("extra", 0x40000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if checkEqual(t, "extra segment", a, b) {
		t.Fatal("memories with different segment tables are equal")
	}
	// Same range, different name: the name is state (core's Heuristic II
	// asks for the "stack" segment).
	if err := a.Map("other", 0x40000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if checkEqual(t, "renamed segment", a, b) {
		t.Fatal("memories whose segments differ in name are equal")
	}
}

func TestEqualForkBeforeAndAfterWrite(t *testing.T) {
	m := newMapped(t)
	if err := m.Write8(0x10000, 42); err != nil {
		t.Fatal(err)
	}
	f := m.Fork()
	if !checkEqual(t, "fresh fork", m, f) {
		t.Fatal("a fresh fork differs from its parent")
	}
	if err := f.Write8(0x10000, 43); err != nil {
		t.Fatal(err)
	}
	if checkEqual(t, "fork after one write", m, f) {
		t.Fatal("a fork equals its parent after diverging from it")
	}
	// Writing the old value back leaves a private copy with the parent's
	// bytes: equal by content, not by backing array.
	if err := f.Write8(0x10000, 42); err != nil {
		t.Fatal(err)
	}
	if !checkEqual(t, "fork after writing the value back", m, f) {
		t.Fatal("a fork with its parent's bytes differs from it")
	}
}

// TestEqualAcrossFlatten walks one lineage through more forks than
// flattenDepth allows in a chain and compares it with relatives forked
// before and after each consolidation: they share no frozen layer any
// more, only page arrays.
func TestEqualAcrossFlatten(t *testing.T) {
	m := newMapped(t)
	var kept []*Memory
	flattened := false
	for i := 0; i < 3*flattenDepth; i++ {
		if err := m.Write8(0x10000+uint64(i%5)*PageSize, uint64(i%3)); err != nil {
			t.Fatal(err)
		}
		before := m.base
		f := m.Fork()
		if before != nil && m.base.depth <= before.depth {
			flattened = true
		}
		if !checkEqual(t, "fork just taken", m, f) {
			t.Fatalf("step %d: fresh fork differs", i)
		}
		if i%7 == 0 {
			kept = append(kept, f)
		}
		for _, k := range kept {
			checkEqual(t, "older relative", m, k)
		}
	}
	if !flattened {
		t.Fatal("the lineage never crossed flattenDepth")
	}
}

// TestEqualProperty drives random histories of Map, Write8, WriteBytes and
// Fork over a population of related memories and checks Equal against the
// byte-wise oracle on a random pair after every step. Values and addresses
// come from small sets so equal pairs are common, and forks are frequent
// enough that lineages are consolidated many times.
func TestEqualProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		root := New()
		if err := root.Map("a", 0x10000, 6*PageSize); err != nil {
			t.Fatal(err)
		}
		// An unaligned segment: its first and last pages are partly unmapped.
		if err := root.Map("b", 0x40010, 2*PageSize); err != nil {
			t.Fatal(err)
		}
		pop := []*Memory{root}
		pick := func() *Memory { return pop[rng.Intn(len(pop))] }
		addr := func(m *Memory) uint64 {
			s := m.segments[rng.Intn(len(m.segments))]
			slots := (s.Size - 8) / 8
			// Two slots per page keep collisions likely.
			return s.Base + (rng.Uint64()%slots)/256*256*8
		}
		equal, unequal, maxDepth := 0, 0, 0
		for step := 0; step < 1500; step++ {
			m := pick()
			switch op := rng.Intn(100); {
			case op < 40:
				if err := m.Write8(addr(m), uint64(rng.Intn(2))); err != nil {
					t.Fatal(err)
				}
			case op < 50:
				// Up to two pages of one byte value, page-crossing (and
				// longer than 8 bytes, which WriteBytes wants aligned).
				s := m.segments[rng.Intn(len(m.segments))]
				n := uint64(rng.Intn(2*PageSize-8) + 9)
				if n > s.Size {
					n = s.Size
				}
				off := rng.Uint64() % (s.Size - n + 1)
				if err := m.WriteBytes(s.Base+off, bytes.Repeat([]byte{byte(rng.Intn(2))}, int(n))); err != nil {
					t.Fatal(err)
				}
			case op < 95:
				f := m.Fork()
				if len(pop) < 10 {
					pop = append(pop, f)
				} else {
					pop[rng.Intn(len(pop))] = f
				}
			default:
				if len(m.segments) == 2 {
					if err := m.Map("late", 0x80000, PageSize); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, x := range pop {
				if x.base != nil && x.base.depth > maxDepth {
					maxDepth = x.base.depth
				}
			}
			if checkEqual(t, "random pair", pick(), pick()) {
				equal++
			} else {
				unequal++
			}
		}
		if equal < 100 || unequal < 100 {
			t.Errorf("seed %d: %d equal and %d unequal pairs; the history exercises one side only", seed, equal, unequal)
		}
		if maxDepth < flattenDepth-1 {
			t.Errorf("seed %d: deepest chain %d never reached flattenDepth %d", seed, maxDepth, flattenDepth)
		}
	}
}
