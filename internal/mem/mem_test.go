package mem

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func newMapped(t *testing.T) *Memory {
	t.Helper()
	m := New()
	if err := m.Map("globals", 0x10000, 0x8000); err != nil {
		t.Fatal(err)
	}
	if err := m.Map("stack", 0x7FFE_0000, 0x1F000); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := newMapped(t)
	if err := m.Write8(0x10008, 0xDEADBEEFCAFEF00D); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read8(0x10008)
	if err != nil || v != 0xDEADBEEFCAFEF00D {
		t.Fatalf("Read8 = %#x, %v", v, err)
	}
}

func TestFloatRoundTrip(t *testing.T) {
	m := newMapped(t)
	for _, f := range []float64{0, 1.5, -3.25e10, math.Inf(1), math.SmallestNonzeroFloat64} {
		if err := m.WriteFloat(0x10010, f); err != nil {
			t.Fatal(err)
		}
		g, err := m.ReadFloat(0x10010)
		if err != nil || g != f {
			t.Fatalf("ReadFloat = %v, %v, want %v", g, err, f)
		}
	}
	if err := m.WriteFloat(0x10018, math.NaN()); err != nil {
		t.Fatal(err)
	}
	g, err := m.ReadFloat(0x10018)
	if err != nil || !math.IsNaN(g) {
		t.Fatal("NaN did not round trip")
	}
}

func TestUnmappedAccessFaults(t *testing.T) {
	m := newMapped(t)
	_, err := m.Read8(0x9000_0000_0000_0000)
	var ae *AccessError
	if !errors.As(err, &ae) || ae.Kind != Unmapped || ae.Write {
		t.Fatalf("err = %v, want unmapped read", err)
	}
	err = m.Write8(0x40, 1)
	if !errors.As(err, &ae) || ae.Kind != Unmapped || !ae.Write {
		t.Fatalf("err = %v, want unmapped write", err)
	}
}

func TestMisalignedAccessFaults(t *testing.T) {
	m := newMapped(t)
	_, err := m.Read8(0x10001)
	var ae *AccessError
	if !errors.As(err, &ae) || ae.Kind != Misaligned {
		t.Fatalf("err = %v, want misaligned", err)
	}
	// Alignment is checked before mapping: a misaligned unmapped address
	// reports SIGBUS-like misalignment, mirroring hardware priority.
	_, err = m.Read8(0x31)
	if !errors.As(err, &ae) || ae.Kind != Misaligned {
		t.Fatalf("err = %v, want misaligned", err)
	}
}

func TestAccessAtSegmentBoundary(t *testing.T) {
	m := newMapped(t)
	// Last full word inside the globals segment.
	if err := m.Write8(0x10000+0x8000-8, 7); err != nil {
		t.Fatalf("last word write failed: %v", err)
	}
	// Straddling the end must fault even though the start is mapped.
	if err := m.Write8(0x10000+0x8000, 7); err == nil {
		t.Fatal("write past segment end succeeded")
	}
	if _, err := m.ReadBytes(0x10000+0x7FFC, 8); err == nil {
		t.Fatal("straddling read succeeded")
	}
}

func TestMapRejectsOverlapAndZero(t *testing.T) {
	m := New()
	if err := m.Map("a", 0x1000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := m.Map("b", 0x1800, 0x1000); err == nil {
		t.Fatal("overlapping map accepted")
	}
	if err := m.Map("c", 0x3000, 0); err == nil {
		t.Fatal("zero-size map accepted")
	}
	if err := m.Map("d", math.MaxUint64-10, 100); err == nil {
		t.Fatal("wrapping map accepted")
	}
	if err := m.Map("e", 0x2000, 0x1000); err != nil {
		t.Fatalf("adjacent map rejected: %v", err)
	}
}

func TestSegmentAt(t *testing.T) {
	m := newMapped(t)
	s, ok := m.SegmentAt(0x10004)
	if !ok || s.Name != "globals" {
		t.Fatalf("SegmentAt = %+v, %v", s, ok)
	}
	if _, ok := m.SegmentAt(0x5); ok {
		t.Fatal("SegmentAt found segment at 0x5")
	}
	if _, ok := m.SegmentAt(0x18000); ok {
		t.Fatal("SegmentAt found segment just past globals")
	}
}

func TestBytesAcrossPages(t *testing.T) {
	m := newMapped(t)
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := m.WriteBytes(0x10000, data); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadBytes(0x10000, uint64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
		}
	}
}

func TestSnapshotIsolation(t *testing.T) {
	m := newMapped(t)
	if err := m.Write8(0x10000, 111); err != nil {
		t.Fatal(err)
	}
	snap := m.Fork()
	if err := m.Write8(0x10000, 222); err != nil {
		t.Fatal(err)
	}
	v, err := snap.Read8(0x10000)
	if err != nil || v != 111 {
		t.Fatalf("snapshot read = %d, %v; want 111", v, err)
	}
	// Snapshot keeps the segment table too.
	if err := snap.Write8(0x7FFE_0000, 9); err != nil {
		t.Fatalf("snapshot lost segment table: %v", err)
	}
}

func TestZeroFillSemantics(t *testing.T) {
	m := newMapped(t)
	v, err := m.Read8(0x10100)
	if err != nil || v != 0 {
		t.Fatalf("untouched memory = %d, %v; want 0", v, err)
	}
}

func TestReadAfterWriteProperty(t *testing.T) {
	m := newMapped(t)
	f := func(off uint16, val uint64) bool {
		addr := 0x10000 + uint64(off%0x7F00)&^7
		if err := m.Write8(addr, val); err != nil {
			return false
		}
		got, err := m.Read8(addr)
		return err == nil && got == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMappedProperty(t *testing.T) {
	m := newMapped(t)
	// Property: Mapped agrees with segment arithmetic for single bytes.
	f := func(addr uint64) bool {
		in := (addr >= 0x10000 && addr < 0x18000) || (addr >= 0x7FFE_0000 && addr < 0x7FFF_F000)
		return m.Mapped(addr, 1) == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestForkIsolationBothDirections(t *testing.T) {
	m := newMapped(t)
	if err := m.Write8(0x10000, 1); err != nil {
		t.Fatal(err)
	}
	f := m.Fork()
	// The fork sees pre-fork state.
	if v, err := f.Read8(0x10000); err != nil || v != 1 {
		t.Fatalf("fork read = %d, %v; want 1", v, err)
	}
	// Parent writes are invisible to the fork, and vice versa.
	if err := m.Write8(0x10000, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Write8(0x10008, 3); err != nil {
		t.Fatal(err)
	}
	if v, _ := f.Read8(0x10000); v != 1 {
		t.Fatalf("fork sees parent write: %d", v)
	}
	if v, _ := m.Read8(0x10008); v != 0 {
		t.Fatalf("parent sees fork write: %d", v)
	}
	if v, _ := f.Read8(0x10008); v != 3 {
		t.Fatalf("fork lost its own write: %d", v)
	}
}

func TestForkPartialPageWritePreservesRest(t *testing.T) {
	m := newMapped(t)
	data := make([]byte, PageSize)
	for i := range data {
		data[i] = byte(i)
	}
	if err := m.WriteBytes(0x10000, data); err != nil {
		t.Fatal(err)
	}
	f := m.Fork()
	// One 8-byte write into the fork must COW the whole page, keeping
	// every other byte of the frozen original.
	if err := f.Write8(0x10100, 0); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadBytes(0x10000, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := data[i]
		if i >= 0x100 && i < 0x108 {
			want = 0
		}
		if got[i] != want {
			t.Fatalf("fork byte %d = %d, want %d", i, got[i], want)
		}
	}
	if f.CopiedPages() != 1 {
		t.Fatalf("CopiedPages = %d, want 1", f.CopiedPages())
	}
}

func TestForkChainNewestWins(t *testing.T) {
	m := newMapped(t)
	var forks []*Memory
	for i := uint64(1); i <= 2*flattenDepth; i++ {
		if err := m.Write8(0x10000, i); err != nil {
			t.Fatal(err)
		}
		forks = append(forks, m.Fork())
	}
	// Every fork pinned the value at its own fork time, across flattening.
	for i, f := range forks {
		if v, _ := f.Read8(0x10000); v != uint64(i+1) {
			t.Fatalf("fork %d reads %d, want %d", i, v, i+1)
		}
	}
	if v, _ := m.Read8(0x10000); v != 2*flattenDepth {
		t.Fatalf("parent reads %d", v)
	}
}

func TestForkOfCleanForkDoesNotDeepen(t *testing.T) {
	m := newMapped(t)
	if err := m.Write8(0x10000, 7); err != nil {
		t.Fatal(err)
	}
	wp := m.Fork()
	d := wp.base.depth
	// Forking a memory with no private pages must not add layers; this is
	// what makes concurrent forks of a frozen waypoint safe.
	r1, r2 := wp.Fork(), wp.Fork()
	if wp.base.depth != d || r1.base.depth != d || r2.base.depth != d {
		t.Fatalf("clean fork deepened chain: %d -> %d", d, wp.base.depth)
	}
	if v, _ := r1.Read8(0x10000); v != 7 {
		t.Fatalf("r1 = %d", v)
	}
}

func TestForkZeroFillAndTouchedPages(t *testing.T) {
	m := newMapped(t)
	if err := m.Write8(0x10000, 5); err != nil {
		t.Fatal(err)
	}
	f := m.Fork()
	// Untouched pages read zero through the chain without materializing.
	if v, err := f.Read8(0x14000); err != nil || v != 0 {
		t.Fatalf("zero fill through fork = %d, %v", v, err)
	}
	if got := f.TouchedPages(); got != 1 {
		t.Fatalf("TouchedPages = %d, want 1", got)
	}
	if f.CopiedPages() != 0 {
		t.Fatalf("reads must not copy pages: %d", f.CopiedPages())
	}
}

func TestForkKeepsSegmentTableIndependent(t *testing.T) {
	m := newMapped(t)
	f := m.Fork()
	if err := f.Map("heap", 0x40000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if m.Mapped(0x40000, 8) {
		t.Fatal("parent inherited fork's segment")
	}
	if !f.Mapped(0x40000, 8) {
		t.Fatal("fork lost its segment")
	}
}

func TestSnapshotIsForkShim(t *testing.T) {
	m := newMapped(t)
	if err := m.Write8(0x10000, 42); err != nil {
		t.Fatal(err)
	}
	s := m.Fork()
	if s.base == nil || s.CopiedPages() != 0 {
		t.Fatal("a fork used as a snapshot should copy no pages")
	}
	if err := m.Write8(0x10000, 43); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Read8(0x10000); v != 42 {
		t.Fatalf("snapshot = %d, want 42", v)
	}
}
