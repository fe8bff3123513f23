// Package mem implements the simulated machine's data memory: a sparse,
// paged 64-bit address space with explicit segment mapping.
//
// Accesses outside mapped segments return an unmapped-access error (the
// machine turns it into SIGSEGV); misaligned 8-byte accesses return an
// alignment error (SIGBUS). This is the crash-generation mechanism of the
// whole reproduction: a bit flip in an address-forming register almost
// always lands outside the few mapped segments and faults, exactly like a
// corrupted pointer on real hardware.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
)

// PageSize is the granularity of the page table, in bytes.
const PageSize = 4096

// AccessKind classifies a faulting access.
type AccessKind uint8

// Access fault kinds.
const (
	Unmapped   AccessKind = iota // no segment maps the address -> SIGSEGV
	Misaligned                   // 8-byte access not 8-byte aligned -> SIGBUS
)

func (k AccessKind) String() string {
	switch k {
	case Unmapped:
		return "unmapped"
	case Misaligned:
		return "misaligned"
	}
	return fmt.Sprintf("accesskind?%d", k)
}

// AccessError describes a faulting memory access.
type AccessError struct {
	Kind  AccessKind
	Addr  uint64
	Size  uint64
	Write bool
}

func (e *AccessError) Error() string {
	dir := "read"
	if e.Write {
		dir = "write"
	}
	return fmt.Sprintf("mem: %s %s of %d bytes at 0x%x", e.Kind, dir, e.Size, e.Addr)
}

// Segment is one mapped address range.
type Segment struct {
	Name string
	Base uint64
	Size uint64
}

// End returns the first address past the segment.
func (s Segment) End() uint64 { return s.Base + s.Size }

// frozen is one immutable copy-on-write layer: a set of pages sealed at
// fork time plus a link to the layer it shadowed. Frozen pages are shared
// by every Memory forked from the same history and must never be written.
type frozen struct {
	pages  map[uint64][]byte
	parent *frozen
	depth  int // chain length including this layer
}

// flattenDepth bounds the frozen-chain length a page lookup may walk.
// When a fork would push the chain past it, the chain is consolidated
// into a single layer (moving page references, never copying bytes).
const flattenDepth = 32

// flatten merges the chain rooted at f into one layer, newest page wins.
func (f *frozen) flatten() *frozen {
	var chain []*frozen
	for g := f; g != nil; g = g.parent {
		chain = append(chain, g)
	}
	merged := make(map[uint64][]byte)
	for i := len(chain) - 1; i >= 0; i-- {
		for idx, p := range chain[i].pages {
			merged[idx] = p
		}
	}
	return &frozen{pages: merged, depth: 1}
}

// Memory is a sparse paged data memory. The zero value is unusable; use New.
//
// Memories fork copy-on-write: Fork seals the current pages into an
// immutable base layer shared by parent and child, and each side copies a
// page only on its first write to it. A Memory whose private page set is
// empty (e.g. one just produced by Fork) can be forked concurrently from
// multiple goroutines; any other mutation requires external serialization.
type Memory struct {
	pages    map[uint64][]byte // private, writable pages: page index -> bytes
	base     *frozen           // immutable fork history; nil for a root memory
	segments []Segment
	copied   uint64 // pages copied out of the base by COW faults

	// Software TLBs for the aligned 8-byte hot path (the simulated
	// machine's LD/ST/PUSH/POP/CALL/RET traffic), direct-mapped on the low
	// bits of the page index. A hit is the whole access check; a miss runs
	// the checks in full (miss8) and installs. What keeps them coherent:
	//   - a write entry only ever points at a private page in pages, so
	//     Fork clears them all when it seals pages into the frozen base —
	//     and only then: forking a clean Memory writes no field, which is
	//     what keeps it safe from many goroutines at once;
	//   - a read entry may point at a frozen page or at zeroPage (an
	//     untouched page); writablePage repoints the read entry of any page
	//     it privatises, whoever asked, so no read goes to a stale ancestor;
	//   - a fork starts with both empty, and Equal and TouchedPages read
	//     neither, so a Memory nobody writes can be compared against and
	//     forked while others do the same.
	// The TLBs make reads stateful: sharing a Memory across goroutines
	// needs external serialization even for Read8.
	rtlb, wtlb [tlbSize]tlbEntry
}

// tlbSize is the number of entries in each TLB. 8 to 64 measure the same
// on the six apps (EXPERIMENTS.md E18); 16 keeps what Fork zeroes and what
// every resident waypoint carries at 768 B.
const tlbSize = 16

// tlbEntry caches one page of one segment: an aligned 8-byte access at addr
// lies inside that page and that segment iff addr-first < size (unsigned).
// One range stands for the page tag and the bounds both, because segments
// are bounded at byte granularity and two may share a page — "the page is
// mapped" would not be enough. The zero entry (size 0) is empty.
type tlbEntry struct {
	first, size uint64
	page        *[PageSize]byte
}

// hit reports whether e answers an 8-byte access at addr.
func (e *tlbEntry) hit(addr uint64) bool {
	return addr-e.first < e.size && addr&7 == 0
}

// New returns an empty memory with no mapped segments.
func New() *Memory {
	return &Memory{pages: make(map[uint64][]byte)}
}

// Fork returns an isolated copy-on-write view of m. Both m and the fork
// see the current contents; subsequent writes on either side are private.
// Cost is O(segments): the current private pages are sealed into a shared
// immutable layer and no page bytes are copied until first write.
func (m *Memory) Fork() *Memory {
	if len(m.pages) > 0 {
		depth := 1
		if m.base != nil {
			depth = m.base.depth + 1
		}
		m.base = &frozen{pages: m.pages, parent: m.base, depth: depth}
		m.pages = make(map[uint64][]byte)
		// The sealed pages are immutable now; no write entry may keep a
		// reference into them. Read entries stay valid (same bytes) and
		// are repointed by the next write to their page.
		m.wtlb = [tlbSize]tlbEntry{}
		if m.base.depth >= flattenDepth {
			m.base = m.base.flatten()
		}
	}
	c := &Memory{pages: make(map[uint64][]byte), base: m.base}
	c.segments = append(c.segments, m.segments...)
	return c
}

// CopiedPages returns how many pages this memory has copied out of its
// frozen base on first write — the engine's "pages copied" COW cost.
func (m *Memory) CopiedPages() uint64 { return m.copied }

// Map adds a segment. The range is rounded outward to page boundaries for
// mapping purposes but bounds-checked at byte granularity. Overlapping
// segments are rejected.
func (m *Memory) Map(name string, base, size uint64) error {
	if size == 0 {
		return fmt.Errorf("mem: segment %q has zero size", name)
	}
	if base+size < base {
		return fmt.Errorf("mem: segment %q wraps the address space", name)
	}
	for _, s := range m.segments {
		if base < s.End() && s.Base < base+size {
			return fmt.Errorf("mem: segment %q overlaps %q", name, s.Name)
		}
	}
	m.segments = append(m.segments, Segment{Name: name, Base: base, Size: size})
	sort.Slice(m.segments, func(i, j int) bool { return m.segments[i].Base < m.segments[j].Base })
	return nil
}

// Segments returns the mapped segments in address order.
func (m *Memory) Segments() []Segment {
	out := make([]Segment, len(m.segments))
	copy(out, m.segments)
	return out
}

// Mapped reports whether the byte range [addr, addr+size) lies entirely
// inside one mapped segment.
func (m *Memory) Mapped(addr, size uint64) bool {
	if addr+size < addr {
		return false
	}
	// Binary search for the last segment with Base <= addr.
	i := sort.Search(len(m.segments), func(i int) bool { return m.segments[i].Base > addr })
	if i == 0 {
		return false
	}
	s := m.segments[i-1]
	return addr >= s.Base && addr+size <= s.End()
}

// SegmentAt returns the segment containing addr.
func (m *Memory) SegmentAt(addr uint64) (Segment, bool) {
	i := sort.Search(len(m.segments), func(i int) bool { return m.segments[i].Base > addr })
	if i == 0 {
		return Segment{}, false
	}
	s := m.segments[i-1]
	if addr < s.End() {
		return s, true
	}
	return Segment{}, false
}

func (m *Memory) check(addr, size uint64, write bool) error {
	if size == 8 && addr%8 != 0 {
		return &AccessError{Kind: Misaligned, Addr: addr, Size: size, Write: write}
	}
	if !m.Mapped(addr, size) {
		return &AccessError{Kind: Unmapped, Addr: addr, Size: size, Write: write}
	}
	return nil
}

// readPage returns the current backing page for addr without allocating:
// the private copy if one exists, else the newest frozen version, else nil
// (an untouched, all-zero page).
func (m *Memory) readPage(addr uint64) []byte {
	idx := addr / PageSize
	if p, ok := m.pages[idx]; ok {
		return p
	}
	for f := m.base; f != nil; f = f.parent {
		if p, ok := f.pages[idx]; ok {
			return p
		}
	}
	return nil
}

// writablePage returns a private, writable page for addr, copying it out
// of the frozen base on first write (the COW fault).
func (m *Memory) writablePage(addr uint64) []byte {
	idx := addr / PageSize
	p, ok := m.pages[idx]
	if !ok {
		p = make([]byte, PageSize)
		for f := m.base; f != nil; f = f.parent {
			if fp, ok := f.pages[idx]; ok {
				copy(p, fp)
				m.copied++
				break
			}
		}
		m.pages[idx] = p
		// A read entry left on the page's frozen ancestor (or on zeroPage)
		// would miss this and every later write.
		if e := &m.rtlb[idx%tlbSize]; e.size != 0 && e.first/PageSize == idx {
			e.page = (*[PageSize]byte)(p)
		}
	}
	return p
}

// rawRead copies mapped bytes without access checks (caller has checked).
func (m *Memory) rawRead(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr % PageSize
		n := int(PageSize - off)
		if n > len(dst) {
			n = len(dst)
		}
		if p := m.readPage(addr); p != nil {
			copy(dst[:n], p[off:])
		} else {
			for i := 0; i < n; i++ {
				dst[i] = 0
			}
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

func (m *Memory) rawWrite(addr uint64, src []byte) {
	for len(src) > 0 {
		p := m.writablePage(addr)
		off := addr % PageSize
		n := copy(p[off:], src)
		src = src[n:]
		addr += uint64(n)
	}
}

// Read8 loads a 64-bit little-endian word. An aligned access never
// crosses a page, so a TLB hit is a direct read of the page.
func (m *Memory) Read8(addr uint64) (uint64, error) {
	e := &m.rtlb[addr/PageSize%tlbSize]
	if !e.hit(addr) {
		var err error
		if e, err = m.miss8(addr, false); err != nil {
			return 0, err
		}
	}
	off := addr & (PageSize - 8) // addr%PageSize, as one mask the bounds check folds into
	return binary.LittleEndian.Uint64(e.page[off:]), nil
}

// Write8 stores a 64-bit little-endian word.
func (m *Memory) Write8(addr, val uint64) error {
	e := &m.wtlb[addr/PageSize%tlbSize]
	if !e.hit(addr) {
		var err error
		if e, err = m.miss8(addr, true); err != nil {
			return err
		}
	}
	off := addr & (PageSize - 8)
	binary.LittleEndian.PutUint64(e.page[off:], val)
	return nil
}

// miss8 is the TLB miss path of an 8-byte access: the access checks in
// their architectural order (misaligned before unmapped), one search for
// the segment, then the page — the private copy for a write, the newest
// version or zeroPage for a read — installed with the range of addresses
// at which an 8-byte access stays inside this page and that segment.
func (m *Memory) miss8(addr uint64, write bool) (*tlbEntry, error) {
	if addr&7 != 0 {
		return nil, &AccessError{Kind: Misaligned, Addr: addr, Size: 8, Write: write}
	}
	s, ok := m.SegmentAt(addr)
	if !ok || addr+8 < addr || addr+8 > s.End() {
		return nil, &AccessError{Kind: Unmapped, Addr: addr, Size: 8, Write: write}
	}
	idx := addr / PageSize
	start := idx * PageSize
	first := max(s.Base, start)
	end := start + min(s.End()-start, PageSize)
	e, p := &m.rtlb[idx%tlbSize], zeroPage[:]
	if write {
		e, p = &m.wtlb[idx%tlbSize], m.writablePage(addr)
	} else if rp := m.readPage(addr); rp != nil {
		p = rp
	}
	*e = tlbEntry{first: first, size: end - 7 - first, page: (*[PageSize]byte)(p)}
	return e, nil
}

// ReadFloat loads an IEEE-754 binary64 value.
func (m *Memory) ReadFloat(addr uint64) (float64, error) {
	u, err := m.Read8(addr)
	return math.Float64frombits(u), err
}

// WriteFloat stores an IEEE-754 binary64 value.
func (m *Memory) WriteFloat(addr uint64, val float64) error {
	return m.Write8(addr, math.Float64bits(val))
}

// ReadBytes copies size bytes starting at addr (host-side access for
// loaders, checkers and debuggers; still segment-checked).
func (m *Memory) ReadBytes(addr, size uint64) ([]byte, error) {
	if err := m.check(addr, size, false); err != nil {
		return nil, err
	}
	out := make([]byte, size)
	m.rawRead(addr, out)
	return out, nil
}

// WriteBytes copies b into memory at addr.
func (m *Memory) WriteBytes(addr uint64, b []byte) error {
	if err := m.check(addr, uint64(len(b)), true); err != nil {
		return err
	}
	m.rawWrite(addr, b)
	return nil
}

// zeroPage stands in for a page no layer holds: untouched memory reads as
// zero, so it must compare equal to an explicitly zeroed page.
var zeroPage [PageSize]byte

// Equal reports whether a and b have the same segment table and the same
// bytes at every address. Only pages touched above the two memories'
// newest common frozen layer can differ, so only those are resolved, and a
// page both sides resolve to the same backing array — the usual case
// between copy-on-write relatives — is equal without looking at its bytes.
//
// Equal reads neither memory's access caches, so one side may be a frozen
// Memory (never written since it was forked) that other goroutines are
// comparing against or forking at the same time.
func Equal(a, b *Memory) bool {
	if !slices.Equal(a.segments, b.segments) {
		return false
	}
	common := commonBase(a.base, b.base)
	seen := make(map[uint64]struct{}, len(a.pages)+len(b.pages))
	same := func(pages map[uint64][]byte) bool {
		for idx := range pages {
			if _, ok := seen[idx]; ok {
				continue
			}
			seen[idx] = struct{}{}
			p, q := a.readPage(idx*PageSize), b.readPage(idx*PageSize)
			if p == nil {
				p = zeroPage[:]
			}
			if q == nil {
				q = zeroPage[:]
			}
			if &p[0] != &q[0] && !bytes.Equal(p, q) {
				return false
			}
		}
		return true
	}
	for _, m := range []*Memory{a, b} {
		if !same(m.pages) {
			return false
		}
		for f := m.base; f != common; f = f.parent {
			if !same(f.pages) {
				return false
			}
		}
	}
	return true
}

// commonBase returns the newest frozen layer on both chains, or nil when
// they share none (unrelated memories, or a flatten on either side since
// they diverged). A layer's depth is its distance from the chain's root, so
// a shared layer sits at the same depth in both chains.
func commonBase(x, y *frozen) *frozen {
	for x != y {
		if x == nil || y == nil {
			return nil
		}
		switch {
		case x.depth > y.depth:
			x = x.parent
		case y.depth > x.depth:
			y = y.parent
		default:
			x, y = x.parent, y.parent
		}
	}
	return x
}

// TouchedPages returns the number of distinct pages materialized for this
// memory, counting private pages and every page reachable through the
// frozen fork history.
func (m *Memory) TouchedPages() int {
	if m.base == nil {
		return len(m.pages)
	}
	seen := make(map[uint64]struct{}, len(m.pages))
	for idx := range m.pages {
		seen[idx] = struct{}{}
	}
	for f := m.base; f != nil; f = f.parent {
		for idx := range f.pages {
			seen[idx] = struct{}{}
		}
	}
	return len(seen)
}
