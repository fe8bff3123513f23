package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// The TLBs are checked against a model, not by hand: refMem is a memory
// with no pages and no caches, op is one operation on a set of live
// memories, and run applies a sequence to the real memories and to the
// model side by side, requiring the same value and the same fault from
// every operation and the TLB invariants (checkTLB) after every operation.

// refMem is the reference memory: a segment list and a byte map.
type refMem struct {
	segs []Segment
	data map[uint64]byte
}

func (r *refMem) mapSeg(base, size uint64) bool {
	if size == 0 || base+size < base {
		return false
	}
	for _, s := range r.segs {
		if base < s.End() && s.Base < base+size {
			return false
		}
	}
	r.segs = append(r.segs, Segment{Base: base, Size: size})
	return true
}

// fault is the access check: misaligned before unmapped, byte-granular.
func (r *refMem) fault(addr, size uint64, write bool) *AccessError {
	if size == 8 && addr%8 != 0 {
		return &AccessError{Kind: Misaligned, Addr: addr, Size: size, Write: write}
	}
	if addr+size >= addr {
		for _, s := range r.segs {
			if addr >= s.Base && addr+size <= s.End() {
				return nil
			}
		}
	}
	return &AccessError{Kind: Unmapped, Addr: addr, Size: size, Write: write}
}

func (r *refMem) read(addr, size uint64) []byte {
	out := make([]byte, size)
	for i := range out {
		out[i] = r.data[addr+uint64(i)]
	}
	return out
}

func (r *refMem) write(addr uint64, b []byte) {
	for i, v := range b {
		r.data[addr+uint64(i)] = v
	}
}

func (r *refMem) fork() *refMem {
	c := &refMem{segs: append([]Segment(nil), r.segs...), data: make(map[uint64]byte, len(r.data))}
	for a, v := range r.data {
		c.data[a] = v
	}
	return c
}

// Operation kinds. arg is the value (opWrite8), the size (opMap,
// opReadBytes, opWriteBytes) or the slot the fork lands in (opFork).
const (
	opMap = iota
	opRead8
	opWrite8
	opReadFloat
	opReadBytes
	opWriteBytes
	opFork
	numOps
)

// maxLive bounds the memories a sequence keeps live; a fork past it
// replaces one, so both sides of most forks stay in play.
const maxLive = 6

type op struct {
	kind      byte
	m         int // index into the live memories, taken modulo their number
	addr, arg uint64
	// want is set by the named cases only: the uint64 a read must return,
	// or the AccessKind it must fault with. nil trusts the model alone.
	want any
}

func (o op) String() string {
	name := [numOps]string{"Map", "Read8", "Write8", "ReadFloat", "ReadBytes", "WriteBytes", "Fork"}[o.kind]
	return fmt.Sprintf("%s(m%d, %#x, %#x)", name, o.m, o.addr, o.arg)
}

// opBytes is the width of one encoded op: kind, memory, addr, arg.
const opBytes = 18

func encode(ops []op) []byte {
	out := make([]byte, 0, len(ops)*opBytes)
	for _, o := range ops {
		out = append(out, o.kind, byte(o.m))
		out = binary.LittleEndian.AppendUint64(out, o.addr)
		out = binary.LittleEndian.AppendUint64(out, o.arg)
	}
	return out
}

// decode reads ops off fuzz input. Sizes are clamped so a mutated byte
// cannot ask for a terabyte buffer; addresses are taken as they come (a
// flipped address bit is this repository's fault model).
func decode(b []byte) []op {
	var ops []op
	for ; len(b) >= opBytes; b = b[opBytes:] {
		o := op{kind: b[0] % numOps, m: int(b[1]), addr: binary.LittleEndian.Uint64(b[2:]), arg: binary.LittleEndian.Uint64(b[10:])}
		switch o.kind {
		case opMap:
			o.arg &= 0xFFFF
		case opReadBytes, opWriteBytes:
			o.arg &= 0x3FFF
		}
		ops = append(ops, o)
	}
	return ops
}

// fill is the deterministic payload WriteBytes stores at addr.
func fill(addr, size uint64) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(addr+uint64(i))*31 + 7
	}
	return b
}

// sameFault requires err to be the AccessError the model predicts, field
// for field, or nil when it predicts none.
func sameFault(t testing.TB, o op, err error, want *AccessError) {
	t.Helper()
	var got *AccessError
	if err != nil && !errors.As(err, &got) {
		t.Fatalf("%v: error %v is not an AccessError", o, err)
	}
	switch {
	case got == nil && want == nil:
	case got == nil || want == nil || *got != *want:
		t.Fatalf("%v: fault %+v, model says %+v", o, got, want)
	}
	if k, ok := o.want.(AccessKind); ok && (got == nil || got.Kind != k) {
		t.Fatalf("%v: fault %+v, want kind %v", o, got, k)
	}
	if _, ok := o.want.(uint64); ok && got != nil {
		t.Fatalf("%v: fault %+v, want a value", o, got)
	}
}

// checkTLB pins the invariants Memory's doc comment states: a write entry
// is the page's private copy and nothing else; a read entry is whatever
// readPage resolves now (zeroPage for an untouched page); every entry sits
// in its own set and covers mapped bytes only.
func checkTLB(t testing.TB, o op, m *Memory) {
	t.Helper()
	check := func(i int, e *tlbEntry, write bool) {
		if e.size == 0 {
			return
		}
		idx := e.first / PageSize
		if int(idx%tlbSize) != i || (e.first+e.size+6)/PageSize != idx {
			t.Fatalf("after %v: entry %d (write=%v) spans [%#x,+%d): wrong set or more than a page", o, i, write, e.first, e.size+7)
		}
		if !m.Mapped(e.first, e.size+7) {
			t.Fatalf("after %v: entry %d (write=%v) covers unmapped bytes at %#x+%d", o, i, write, e.first, e.size+7)
		}
		want := m.readPage(e.first)
		if write {
			if want = m.pages[idx]; want == nil {
				t.Fatalf("after %v: write entry %d points at a page that is not private", o, i)
			}
		} else if want == nil {
			want = zeroPage[:]
		}
		if &want[0] != &e.page[0] {
			t.Fatalf("after %v: entry %d (write=%v) is stale for page %#x", o, i, write, idx)
		}
	}
	for i := range m.rtlb {
		check(i, &m.rtlb[i], false)
		check(i, &m.wtlb[i], true)
	}
}

// run applies ops to real memories and to the model, starting from one
// empty memory of each.
func run(t testing.TB, ops []op) {
	t.Helper()
	mems, refs := []*Memory{New()}, []*refMem{{data: map[uint64]byte{}}}
	for _, o := range ops {
		i := o.m % len(mems)
		m, r := mems[i], refs[i]
		switch o.kind {
		case opMap:
			err := m.Map(fmt.Sprintf("s%x", o.addr), o.addr, o.arg)
			if ok := r.mapSeg(o.addr, o.arg); ok != (err == nil) {
				t.Fatalf("%v: Map error %v, model accepts = %v", o, err, ok)
			}
		case opRead8, opReadFloat:
			var got uint64
			var err error
			if o.kind == opRead8 {
				got, err = m.Read8(o.addr)
			} else {
				var f float64
				f, err = m.ReadFloat(o.addr)
				got = math.Float64bits(f)
			}
			want := r.fault(o.addr, 8, false)
			sameFault(t, o, err, want)
			if want == nil {
				if w := binary.LittleEndian.Uint64(r.read(o.addr, 8)); got != w {
					t.Fatalf("%v = %#x, model says %#x", o, got, w)
				}
				if w, ok := o.want.(uint64); ok && got != w {
					t.Fatalf("%v = %#x, want %#x", o, got, w)
				}
			} else if got != 0 {
				t.Fatalf("%v faulted and still returned %#x", o, got)
			}
		case opWrite8:
			want := r.fault(o.addr, 8, true)
			sameFault(t, o, m.Write8(o.addr, o.arg), want)
			if want == nil {
				r.write(o.addr, binary.LittleEndian.AppendUint64(nil, o.arg))
			}
		case opReadBytes:
			got, err := m.ReadBytes(o.addr, o.arg)
			want := r.fault(o.addr, o.arg, false)
			sameFault(t, o, err, want)
			if want == nil && !bytes.Equal(got, r.read(o.addr, o.arg)) {
				t.Fatalf("%v differs from the model", o)
			}
		case opWriteBytes:
			b := fill(o.addr, o.arg)
			want := r.fault(o.addr, o.arg, true)
			sameFault(t, o, m.WriteBytes(o.addr, b), want)
			if want == nil {
				r.write(o.addr, b)
			}
		case opFork:
			c, cr := m.Fork(), r.fork()
			if c.rtlb != ([tlbSize]tlbEntry{}) || c.wtlb != ([tlbSize]tlbEntry{}) {
				t.Fatalf("%v: the fork does not start with empty TLBs", o)
			}
			if slot := int(o.arg % maxLive); slot < len(mems) && len(mems) == maxLive {
				mems[slot], refs[slot] = c, cr
			} else {
				mems, refs = append(mems, c), append(refs, cr)
			}
		}
		checkTLB(t, o, m) // no operation touches another memory's TLBs; a fork's are empty
	}
	// Everything any memory holds, through the TLB and around it.
	for i, m := range mems {
		for _, s := range refs[i].segs {
			if refs[i].fault(s.Base, s.Size, false) != nil {
				continue // an 8-byte segment off alignment: ReadBytes of 8 is an aligned access
			}
			got, err := m.ReadBytes(s.Base, s.Size)
			if err != nil || !bytes.Equal(got, refs[i].read(s.Base, s.Size)) {
				t.Fatalf("final sweep: memory %d segment %#x+%d differs from the model (err %v)", i, s.Base, s.Size, err)
			}
			for a := (s.Base + 7) &^ 7; a+8 <= s.End() && a+8 > a; a += 8 {
				v, err := m.Read8(a)
				if w := binary.LittleEndian.Uint64(got[a-s.Base:]); err != nil || v != w {
					t.Fatalf("final sweep: memory %d Read8(%#x) = %#x, %v; bytes say %#x", i, a, v, err, w)
				}
			}
		}
	}
	if zeroPage != ([PageSize]byte{}) {
		t.Fatal("zeroPage was written")
	}
}

// The layout the generated sequences and the named cases share. Nothing
// is page- or 8-aligned unless it has to be; globals ends mid-page and
// tail starts in that same page; globals, alias, heap and far all start
// in TLB set 0; top ends at the last byte of the address space.
const setStride = tlbSize * PageSize

var layout = []Segment{
	{Name: "globals", Base: 0x10003, Size: 0x1395}, // ends 0x11398, mid-page
	{Name: "tail", Base: 0x113A0, Size: 0x95},      // shares page 0x11 with globals
	{Name: "alias", Base: 0x10000 + setStride, Size: PageSize + 9},
	{Name: "heap", Base: 0x10005 + 3*setStride, Size: 3*PageSize + 17},
	{Name: "far", Base: 0x10000 + 64*setStride, Size: 2 * PageSize},
	{Name: "stack", Base: 0x7FFF_0000, Size: 0x3000},
	{Name: "top", Base: math.MaxUint64 - 0x2000 + 4, Size: 0x2000 - 4},
	{Name: "overlap", Base: 0x11000, Size: 0x100}, // refused once globals is mapped
	{Name: "empty", Base: 0x50000, Size: 0},
	{Name: "wraps", Base: math.MaxUint64 - 15, Size: 32},
}

// mapLayout maps the first n layout segments into memory 0.
func mapLayout(n int) []op {
	var ops []op
	for _, s := range layout[:n] {
		ops = append(ops, op{kind: opMap, addr: s.Base, arg: s.Size})
	}
	return ops
}

// genOps draws a sequence: addresses sit at or near a segment's edges, a
// page boundary inside it, or the same offset one or two TLB sets away,
// so hits, conflict misses, partial pages and every fault kind all occur.
func genOps(rng *rand.Rand, n int) []op {
	ops := mapLayout(3 + rng.Intn(5))
	for len(ops) < n {
		s := layout[rng.Intn(len(layout))]
		var addr uint64
		switch rng.Intn(5) {
		case 0:
			addr = s.Base
		case 1:
			addr = s.End()
		case 2:
			addr = (s.Base + PageSize) &^ (PageSize - 1)
		case 3:
			addr = s.Base + uint64(rng.Int63n(int64(s.Size)+1))
		case 4:
			addr = s.Base + uint64(rng.Intn(3))*setStride + uint64(rng.Intn(64))
		}
		addr += uint64(rng.Intn(49)) - 24
		if rng.Intn(4) > 0 {
			addr &^= 7
		}
		o := op{m: rng.Intn(maxLive), addr: addr}
		switch k := rng.Intn(100); {
		case k < 35:
			o.kind = opRead8
		case k < 65:
			o.kind, o.arg = opWrite8, rng.Uint64()
		case k < 70:
			o.kind = opReadFloat
		case k < 80:
			o.kind, o.arg = opReadBytes, uint64(rng.Intn(2*PageSize+3))
		case k < 88:
			o.kind, o.arg = opWriteBytes, uint64(rng.Intn(2*PageSize+3))
		case k < 97:
			o.kind, o.arg = opFork, uint64(rng.Intn(maxLive))
		default:
			o.kind, o.addr, o.arg = opMap, s.Base, s.Size
		}
		ops = append(ops, o)
	}
	return ops
}

func TestTLBModelRandomSequences(t *testing.T) {
	seqs := 300
	if testing.Short() {
		seqs = 40
	}
	for seed := 0; seed < seqs; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			run(t, genOps(rand.New(rand.NewSource(int64(seed))), 400))
		})
	}
}

// deepen returns ops that take memory 0's frozen chain to flattenDepth (so
// it is flattened) and 20 layers up again: one write and one fork per
// layer, the fork replacing slot 1 once all slots are live, so memory 0 is
// the one that keeps sealing. The writes stay clear of the named cases'.
func deepen() []op {
	var ops []op
	for i := uint64(0); i < flattenDepth+20; i++ {
		ops = append(ops,
			op{kind: opWrite8, addr: 0x7FFF_0800 + i%3*PageSize + i*8, arg: i},
			op{kind: opFork, arg: 1})
	}
	return ops
}

// namedCases are the sequences a reviewer would write by hand. Each runs
// against the model like any other; want adds the expectation spelled out.
var namedCases = map[string][]op{
	// A read installs zeroPage; the write must repoint that entry, not
	// write through it; a second memory still reads 0.
	"untouched-read-write-read": append(mapLayout(7),
		op{kind: opFork, arg: 1},
		op{kind: opRead8, addr: 0x10008, want: uint64(0)},
		op{kind: opWrite8, addr: 0x10008, arg: 0xABCD},
		op{kind: opRead8, addr: 0x10008, want: uint64(0xABCD)},
		op{kind: opRead8, addr: 0x10010, want: uint64(0)},
		op{kind: opRead8, m: 1, addr: 0x10008, want: uint64(0)},
	),
	// Isolation both ways; the parent's write entry must not survive the
	// seal (checkTLB: a write entry is a private page or nothing).
	"write-fork-write-both": append(mapLayout(7),
		op{kind: opWrite8, addr: 0x7FFF_0010, arg: 1},
		op{kind: opRead8, addr: 0x7FFF_0010, want: uint64(1)},
		op{kind: opFork, arg: 1},
		op{kind: opWrite8, addr: 0x7FFF_0010, arg: 2},
		op{kind: opRead8, m: 1, addr: 0x7FFF_0010, want: uint64(1)},
		op{kind: opWrite8, m: 1, addr: 0x7FFF_0010, arg: 3},
		op{kind: opRead8, addr: 0x7FFF_0010, want: uint64(2)},
		op{kind: opRead8, m: 1, addr: 0x7FFF_0010, want: uint64(3)},
		op{kind: opFork, arg: 2},
		op{kind: opRead8, m: 2, addr: 0x7FFF_0010, want: uint64(2)},
	),
	// rawWrite privatises a page the read TLB holds — once off zeroPage,
	// once off a frozen ancestor.
	"writebytes-under-read-entry": append(mapLayout(7),
		op{kind: opRead8, addr: 0x7FFF_1000, want: uint64(0)},
		op{kind: opWriteBytes, addr: 0x7FFF_0FFD, arg: 11},
		op{kind: opRead8, addr: 0x7FFF_1000, want: binary.LittleEndian.Uint64(fill(0x7FFF_1000, 8))},
		op{kind: opFork, arg: 1},
		op{kind: opRead8, addr: 0x7FFF_1008, want: uint64(0)},
		op{kind: opWriteBytes, addr: 0x7FFF_1008, arg: 8},
		op{kind: opRead8, addr: 0x7FFF_1008, want: binary.LittleEndian.Uint64(fill(0x7FFF_1008, 8))},
		op{kind: opRead8, m: 1, addr: 0x7FFF_1008, want: uint64(0)},
	),
	// globals ends at 0x11398 mid-page and tail starts at 0x113A0 in the
	// same page: End-8 is the last word, End-7 is misaligned before it is
	// anything else, End is the gap; the entry for one segment must not
	// answer for the other or for the gap. alias ends at 0x21009, not a
	// multiple of 8: its last whole word is at 0x21000.
	"partial-last-page": append(mapLayout(7),
		op{kind: opWrite8, addr: 0x11390, arg: 5},
		op{kind: opRead8, addr: 0x11390, want: uint64(5)},
		op{kind: opRead8, addr: 0x11391, want: Misaligned},
		op{kind: opRead8, addr: 0x11398, want: Unmapped},
		op{kind: opWrite8, addr: 0x11398, want: Unmapped},
		op{kind: opWrite8, addr: 0x113A0, arg: 6},
		op{kind: opRead8, addr: 0x113A0, want: uint64(6)},
		op{kind: opRead8, addr: 0x11390, want: uint64(5)},
		op{kind: opRead8, addr: 0x11430, want: Unmapped},
		op{kind: opWrite8, addr: 0x11430, want: Unmapped},
		op{kind: opRead8, addr: 0x11428, want: uint64(0)},
		op{kind: opRead8, addr: 0x10000, want: Unmapped},
		op{kind: opRead8, addr: 0x10008, want: uint64(0)},
		op{kind: opWrite8, addr: 0x21000, arg: 7},
		op{kind: opWrite8, addr: 0x21008, want: Unmapped},
		op{kind: opRead8, addr: 0x21008, want: Unmapped},
		op{kind: opRead8, addr: 0x21005, want: Misaligned},
	),
	// top ends at 2^64-1: the last aligned word would need addr+8 to wrap.
	"wrapping": append(mapLayout(7),
		op{kind: opWrite8, addr: math.MaxUint64 - 15, arg: 9},
		op{kind: opRead8, addr: math.MaxUint64 - 15, want: uint64(9)},
		op{kind: opRead8, addr: math.MaxUint64 - 7, want: Unmapped},
		op{kind: opWrite8, addr: math.MaxUint64 - 7, want: Unmapped},
		op{kind: opRead8, addr: math.MaxUint64, want: Misaligned},
		op{kind: opReadBytes, addr: math.MaxUint64 - 7, arg: 7},
		op{kind: opReadBytes, addr: math.MaxUint64 - 7, arg: 9},
	),
	// Four pages of one set take turns in one entry.
	"same-set": append(mapLayout(7),
		op{kind: opWrite8, addr: 0x10008, arg: 1},
		op{kind: opWrite8, addr: 0x10008 + setStride, arg: 2},
		op{kind: opWrite8, addr: 0x10008 + 3*setStride, arg: 3},
		op{kind: opWrite8, addr: 0x10008 + 64*setStride, arg: 4},
		op{kind: opRead8, addr: 0x10008, want: uint64(1)},
		op{kind: opRead8, addr: 0x10008 + setStride, want: uint64(2)},
		op{kind: opRead8, addr: 0x10008 + 3*setStride, want: uint64(3)},
		op{kind: opRead8, addr: 0x10008 + 64*setStride, want: uint64(4)},
		op{kind: opRead8, addr: 0x10008 + 2*setStride, want: Unmapped},
		op{kind: opRead8, addr: 0x10008, want: uint64(1)},
	),
}

func init() {
	// The same cases again on a chain that has been flattened and has
	// grown back, with the deep side and forks of it all live.
	flattened := map[string][]op{}
	for name, ops := range namedCases {
		deep := append(mapLayout(7), deepen()...)
		flattened[name+"-flattened"] = append(deep, ops[7:]...)
	}
	for name, ops := range flattened {
		namedCases[name] = ops
	}
}

func TestTLBNamedCases(t *testing.T) {
	for name, ops := range namedCases {
		t.Run(name, func(t *testing.T) { run(t, ops) })
	}
}

func TestTLBDeepenFlattens(t *testing.T) {
	m := New()
	if err := m.Map("stack", 0x7FFF_0000, 0x3000); err != nil {
		t.Fatal(err)
	}
	deepest := 0
	for _, o := range deepen() {
		if o.kind == opFork {
			m.Fork()
			deepest = max(deepest, m.base.depth)
		} else if err := m.Write8(o.addr, o.arg); err != nil {
			t.Fatal(err)
		}
	}
	if deepest < flattenDepth-1 || m.base.depth >= deepest {
		t.Fatalf("deepen reached depth %d and ended at %d; want a flatten at %d on the way", deepest, m.base.depth, flattenDepth)
	}
}

// TestTLBForkOfCleanMemoryWritesNothing is the concurrency half of the
// contract: a memory nobody writes — warm read entries and all — can be
// forked and compared from many goroutines at once (run under -race).
func TestTLBForkOfCleanMemoryWritesNothing(t *testing.T) {
	m := New()
	if err := m.Map("stack", 0x7FFF_0000, 0x3000); err != nil {
		t.Fatal(err)
	}
	if err := m.Write8(0x7FFF_0008, 42); err != nil {
		t.Fatal(err)
	}
	way := m.Fork() // clean: its private page set is empty
	if v, err := way.Read8(0x7FFF_0008); err != nil || v != 42 {
		t.Fatalf("waypoint reads %d, %v", v, err)
	}
	before := *way
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := way.Fork()
				if err := c.Write8(0x7FFF_0008, g); err != nil {
					t.Error(err)
				}
				if v, _ := c.Read8(0x7FFF_0008); v != g {
					t.Errorf("fork %d reads %d", g, v)
				}
				if Equal(way, c) {
					t.Errorf("fork %d wrote and still equals the waypoint", g)
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	if way.rtlb != before.rtlb || way.wtlb != before.wtlb || way.base != before.base || len(way.pages) != 0 {
		t.Fatal("forking a clean memory changed it")
	}
}

func FuzzMemoryModel(f *testing.F) {
	for _, ops := range namedCases {
		f.Add(encode(ops))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 400*opBytes {
			t.Skip("longer than any sequence worth shrinking")
		}
		run(t, decode(b))
	})
}

// benchMemory maps 128 pages of "data" (its first page is in TLB set 0) and
// a stack page in another set, and writes every page once so reads find
// real pages rather than zeroPage.
func benchMemory(b *testing.B) *Memory {
	b.Helper()
	m := New()
	if err := m.Map("data", benchData, 128*PageSize); err != nil {
		b.Fatal(err)
	}
	if err := m.Map("stack", benchStack, PageSize); err != nil {
		b.Fatal(err)
	}
	for p := uint64(0); p < 128; p++ {
		if err := m.Write8(benchData+p*PageSize, p); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

const (
	benchData  = 0x100000
	benchStack = 0x7FFF_5000
)

// benchPatterns are the access patterns the TLB's cost has to be quoted
// for: the hit, the apps' own pattern, the capacity miss, the conflict miss.
var benchPatterns = []struct {
	name string
	addr func(i uint64) uint64
}{
	{"same-page", func(i uint64) uint64 { return benchData + i%512*8 }},
	{"stack+globals", func(i uint64) uint64 { return [2]uint64{benchStack, benchData}[i&1] + i%512*8 }},
	{"round-robin-8", func(i uint64) uint64 { return benchData + i%8*PageSize }},
	{"round-robin-32", func(i uint64) uint64 { return benchData + i%(2*tlbSize)*PageSize }},
	{"same-set", func(i uint64) uint64 { return benchData + i%2*setStride }},
}

// afterFork runs access on a fresh fork of a memory whose 64 data pages
// sit flattenDepth-1 layers down, 64 first touches per fork.
func afterFork(b *testing.B, access func(m *Memory, addr uint64)) {
	m := benchMemory(b)
	for d := uint64(1); d < flattenDepth; d++ {
		// One stack write per layer; the data pages stay in the oldest.
		if err := m.Write8(benchStack, d); err != nil {
			b.Fatal(err)
		}
		m.Fork()
	}
	b.ResetTimer()
	var c *Memory
	for i := uint64(0); i < uint64(b.N); i++ {
		if i%64 == 0 {
			c = m.Fork()
		}
		access(c, benchData+i%64*PageSize)
	}
}

var benchSink uint64

func BenchmarkRead8(b *testing.B) {
	for _, p := range benchPatterns {
		b.Run(p.name, func(b *testing.B) {
			m := benchMemory(b)
			b.ResetTimer()
			for i := uint64(0); i < uint64(b.N); i++ {
				v, _ := m.Read8(p.addr(i))
				benchSink += v
			}
		})
	}
	b.Run("after-fork", func(b *testing.B) {
		afterFork(b, func(m *Memory, addr uint64) {
			v, _ := m.Read8(addr)
			benchSink += v
		})
	})
}

func BenchmarkWrite8(b *testing.B) {
	for _, p := range benchPatterns {
		b.Run(p.name, func(b *testing.B) {
			m := benchMemory(b)
			b.ResetTimer()
			for i := uint64(0); i < uint64(b.N); i++ {
				_ = m.Write8(p.addr(i), i) // mapped and aligned by construction
			}
		})
	}
	b.Run("after-fork", func(b *testing.B) {
		afterFork(b, func(m *Memory, addr uint64) { _ = m.Write8(addr, addr) })
	})
}
