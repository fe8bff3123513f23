package analysis

import (
	"fmt"
	"sort"

	"github.com/letgo-hpc/letgo/internal/isa"
)

// The regions pass partitions the machine's data memory into named
// regions and computes, for every instruction, which regions it may read
// and write. Regions are the granularity of the dependency analysis and
// of the derived checkpoint sets: one region per global symbol, one per
// uncovered global-segment gap, one per function stack frame, one for
// unattributable stack accesses, and one for the heap segment.
//
// Addresses are tracked by a small abstract-value dataflow over the
// integer register file: an address expression is either a known
// constant interval, a pointer into one region at a known offset
// interval, or unknown. The MiniC compiler's addressing idiom —
// li base, <symbol>; optional index arithmetic; ld/st [base+imm] —
// resolves exactly, and locals resolve through the existing sp/bp depth
// dataflow. Pointer arithmetic with a statically unknown index stays
// inside its region: MiniC guards every indexed access with an ABORT
// bounds check, so an in-bounds pointer plus an in-range index is still
// in-bounds. Hand-written code that fabricates pointers from arithmetic
// the tracker cannot see degrades to "may touch any region", which is
// sound and merely imprecise.

// RegionKind classifies a memory region.
type RegionKind uint8

const (
	// RegionGlobal is a named global symbol's storage.
	RegionGlobal RegionKind = iota
	// RegionAnonGlobal is a global-segment range no symbol covers.
	RegionAnonGlobal
	// RegionFrame is one function's stack frame (locals, saved
	// registers, call temporaries).
	RegionFrame
	// RegionStack is stack memory not attributable to a specific frame
	// (opaque sp arithmetic, accesses above the entry sp).
	RegionStack
	// RegionHeap is the heap segment.
	RegionHeap
)

func (k RegionKind) String() string {
	switch k {
	case RegionGlobal:
		return "global"
	case RegionAnonGlobal:
		return "anon-global"
	case RegionFrame:
		return "frame"
	case RegionStack:
		return "stack"
	case RegionHeap:
		return "heap"
	}
	return fmt.Sprintf("region?%d", uint8(k))
}

// Region is one unit of the memory partition.
type Region struct {
	Index int
	Kind  RegionKind
	// Name is the global symbol or "frame:<func>"; synthesized for
	// anonymous regions.
	Name string
	// Addr is the region's base address for global and heap regions;
	// stack-relative regions carry 0 (frames float with sp).
	Addr uint64
	// Size is the region's byte size. Frame sizes are derived from the
	// stack-depth dataflow (the deepest sp the function reaches) and
	// fall back to FallbackFrameBytes when the depth widened to unknown.
	Size uint64
	// Func is the owning function index for frame regions, -1 otherwise.
	Func int
}

// RegionSet is a bitset over a program's region indices.
type RegionSet []uint64

func newRegionSet(n int) RegionSet { return make(RegionSet, (n+63)/64) }

// Add inserts region i, reporting whether the set changed.
func (s RegionSet) Add(i int) bool {
	w, b := i/64, uint64(1)<<(i%64)
	if s[w]&b != 0 {
		return false
	}
	s[w] |= b
	return true
}

// Has reports whether region i is in the set.
func (s RegionSet) Has(i int) bool {
	if s == nil {
		return false
	}
	return s[i/64]&(1<<(i%64)) != 0
}

// UnionWith adds every region of o, reporting whether the set changed.
func (s RegionSet) UnionWith(o RegionSet) bool {
	changed := false
	for w := range o {
		if n := s[w] | o[w]; n != s[w] {
			s[w] = n
			changed = true
		}
	}
	return changed
}

// Contains reports whether every region of o is in s.
func (s RegionSet) Contains(o RegionSet) bool {
	for w := range o {
		if o[w]&^s[w] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether the sets share a region.
func (s RegionSet) Intersects(o RegionSet) bool {
	if s == nil || o == nil {
		return false
	}
	for w := range o {
		if s[w]&o[w] != 0 {
			return true
		}
	}
	return false
}

// Empty reports whether the set has no regions.
func (s RegionSet) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of regions in the set.
func (s RegionSet) Count() int {
	n := 0
	for _, w := range s {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Clone returns an independent copy.
func (s RegionSet) Clone() RegionSet {
	if s == nil {
		return nil
	}
	out := make(RegionSet, len(s))
	copy(out, s)
	return out
}

// Members returns the region indices in ascending order.
func (s RegionSet) Members() []int {
	var out []int
	for w, word := range s {
		for b := 0; b < 64; b++ {
			if word&(1<<b) != 0 {
				out = append(out, w*64+b)
			}
		}
	}
	return out
}

// Regions is the regions pass's fact: the region map plus per-instruction
// read/write region summaries.
type Regions struct {
	// All lists every region, index-addressable.
	All []*Region
	// Reads[i] / Writes[i] are the regions instruction i may load from /
	// store to; nil when the instruction has no memory effect or was
	// never reached by the dataflow.
	Reads, Writes []RegionSet

	// frameOf maps func index -> frame region index.
	frameOf []int
	// stack and heap are the catch-all region indices.
	stack, heap int
	// globalRegions indexes global-segment regions in address order, for
	// constant-address resolution.
	globalRegions []int
	// unknown has every region set: the resolution of an address the
	// tracker lost.
	unknown RegionSet
	// bitCache memoizes single-region sets for the dependency fixpoint.
	bitCache []RegionSet
}

// NewSet returns an empty set sized for this region map.
func (r *Regions) NewSet() RegionSet { return newRegionSet(len(r.All)) }

// RegionAt resolves a data address to its region index (globals and heap
// only; stack addresses are relative facts). ok is false outside the
// mapped global and heap segments.
func (r *Regions) RegionAt(addr uint64, prog *isa.Program) (int, bool) {
	if addr >= isa.HeapBase && addr < isa.HeapBase+isa.DefaultHeapBytes {
		return r.heap, true
	}
	if addr < isa.GlobalBase || addr >= isa.GlobalBase+prog.Globals {
		return 0, false
	}
	i := sort.Search(len(r.globalRegions), func(i int) bool {
		reg := r.All[r.globalRegions[i]]
		return reg.Addr+reg.Size > addr
	})
	if i < len(r.globalRegions) && r.All[r.globalRegions[i]].Addr <= addr {
		return r.globalRegions[i], true
	}
	return 0, false
}

// Regions returns the region facts, running the pass on first use.
func (a *Analysis) Regions() *Regions {
	a.regionsOnce.Do(func() { a.timed(passRegions, a.computeRegions) })
	return a.regions
}

// computeRegions is the regions pass.
func (a *Analysis) computeRegions() {
	r := &Regions{}
	add := func(kind RegionKind, name string, addr, size uint64, fn int) int {
		reg := &Region{Index: len(r.All), Kind: kind, Name: name, Addr: addr, Size: size, Func: fn}
		r.All = append(r.All, reg)
		return reg.Index
	}

	// Global-segment regions: one per symbol, anonymous fillers for gaps.
	var syms []isa.Symbol
	for _, s := range a.Prog.Symbols {
		if s.Kind == isa.SymGlobal {
			syms = append(syms, s)
		}
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i].Addr < syms[j].Addr })
	cur := isa.GlobalBase
	end := isa.GlobalBase + a.Prog.Globals
	for _, s := range syms {
		if s.Addr >= end || s.Addr+s.Size > end || s.Size == 0 {
			continue // malformed symbol; its range stays anonymous
		}
		if s.Addr > cur {
			r.globalRegions = append(r.globalRegions,
				add(RegionAnonGlobal, fmt.Sprintf("<data@0x%x>", cur), cur, s.Addr-cur, -1))
		}
		if s.Addr >= cur {
			r.globalRegions = append(r.globalRegions,
				add(RegionGlobal, s.Name, s.Addr, s.Size, -1))
			cur = s.Addr + s.Size
		}
	}
	if cur < end {
		r.globalRegions = append(r.globalRegions,
			add(RegionAnonGlobal, fmt.Sprintf("<data@0x%x>", cur), cur, end-cur, -1))
	}

	// Segment catch-alls.
	r.heap = add(RegionHeap, "<heap>", isa.HeapBase, isa.DefaultHeapBytes, -1)
	r.stack = add(RegionStack, "<stack>", 0, isa.DefaultStackBytes, -1)

	// One frame region per function, sized by the stack-depth dataflow.
	r.frameOf = make([]int, len(a.Funcs))
	for fi, f := range a.Funcs {
		name := f.Sym.Name
		if name == "" {
			name = fmt.Sprintf("<anon@0x%x>", f.Sym.Addr)
		}
		r.frameOf[fi] = add(RegionFrame, "frame:"+name, 0, a.frameSize(f), fi)
	}

	r.unknown = newRegionSet(len(r.All))
	for i := range r.All {
		r.unknown.Add(i)
	}

	a.regions = r
	a.computeEffects()
}

// frameSize derives a function's frame footprint from the stack-depth
// dataflow: the deepest sp any of its reachable instructions can hold.
// Functions whose depth widened to unknown get FallbackFrameBytes.
func (a *Analysis) frameSize(f *Func) uint64 {
	var max int64
	for _, bi := range f.Blocks {
		b := a.Blocks[bi]
		for i := b.first; i <= b.last; i++ {
			st := a.depthIn[i]
			if !st.reached {
				continue
			}
			if st.sp.Top {
				return FallbackFrameBytes
			}
			if st.sp.Hi > max {
				max = st.sp.Hi
			}
		}
	}
	// One extra slot covers the deepest instruction's own push.
	return uint64(max) + 8
}

// Abstract address values for the pointer dataflow.
type avKind uint8

const (
	avTop   avKind = iota // unknown value
	avConst               // known integer interval
	avPtr                 // pointer into one region, offset interval
)

type av struct {
	kind   avKind
	region int
	iv     Interval // value for avConst, region offset for avPtr
}

func (v av) eq(o av) bool {
	return v.kind == o.kind && v.region == o.region && v.iv.eq(o.iv)
}

func avJoin(x, y av) av {
	switch {
	case x.kind == avTop || y.kind == avTop:
		return av{kind: avTop}
	case x.kind != y.kind:
		return av{kind: avTop}
	case x.kind == avPtr && x.region != y.region:
		return av{kind: avTop}
	default:
		return av{kind: x.kind, region: x.region, iv: x.iv.join(y.iv)}
	}
}

// avAdd models x + y for address arithmetic. Pointer plus unknown stays
// in its region (the documented in-bounds assumption); pointer plus
// pointer is meaningless and goes to top.
func avAdd(x, y av) av {
	if y.kind == avPtr {
		x, y = y, x
	}
	switch {
	case x.kind == avPtr && y.kind == avPtr:
		return av{kind: avTop}
	case x.kind == avPtr:
		off := top
		if y.kind == avConst {
			off = addIv(x.iv, y.iv)
		}
		return av{kind: avPtr, region: x.region, iv: off}
	case x.kind == avConst && y.kind == avConst:
		return av{kind: avConst, iv: addIv(x.iv, y.iv)}
	default:
		return av{kind: avTop}
	}
}

// addIv is interval addition.
func addIv(x, y Interval) Interval {
	if x.Top || y.Top {
		return top
	}
	return Interval{Lo: x.Lo + y.Lo, Hi: x.Hi + y.Hi}
}

// classifyImm types an immediate: addresses in the mapped data segments
// become pointers, everything else a constant. (A large integer constant
// that happens to alias a segment address over-approximates harmlessly:
// the pointer typing only matters when the value reaches an address
// operand.)
func (a *Analysis) classifyImm(v int64) av {
	r := a.regions
	addr := uint64(v)
	if v > 0 {
		if ri, ok := r.RegionAt(addr, a.Prog); ok {
			return av{kind: avPtr, region: ri, iv: point(int64(addr - r.All[ri].Addr))}
		}
		if addr >= isa.StackTop-isa.DefaultStackBytes && addr < isa.StackTop {
			return av{kind: avPtr, region: r.stack, iv: top}
		}
	}
	return av{kind: avConst, iv: point(v)}
}

// avStep is the pointer dataflow transfer function.
func (a *Analysis) avStep(st []av, in isa.Instruction) {
	info := in.Info()
	if info.Dest != isa.DestInt {
		return
	}
	switch in.Op {
	case isa.LI:
		st[in.Rd] = a.classifyImm(in.Imm)
	case isa.MOV:
		st[in.Rd] = st[in.Rs1]
	case isa.ADD:
		st[in.Rd] = avAdd(st[in.Rs1], st[in.Rs2])
	case isa.ADDI:
		st[in.Rd] = avAdd(st[in.Rs1], av{kind: avConst, iv: point(in.Imm)})
	case isa.SUB:
		y := st[in.Rs2]
		if y.kind == avConst && !y.iv.Top {
			st[in.Rd] = avAdd(st[in.Rs1], av{kind: avConst, iv: Interval{Lo: -y.iv.Hi, Hi: -y.iv.Lo}})
		} else {
			st[in.Rd] = av{kind: avTop}
		}
	case isa.MULI:
		if x, ok := st[in.Rs1].iv.Exact(); ok && st[in.Rs1].kind == avConst {
			st[in.Rd] = av{kind: avConst, iv: point(x * in.Imm)}
		} else {
			st[in.Rd] = av{kind: avTop}
		}
	default:
		st[in.Rd] = av{kind: avTop}
	}
}

// computeEffects runs the pointer dataflow per function and records every
// instruction's read/write region summary.
func (a *Analysis) computeEffects() {
	r := a.regions
	n := len(a.Prog.Instrs)
	r.Reads = make([]RegionSet, n)
	r.Writes = make([]RegionSet, n)

	blockIn := make([][]av, len(a.Blocks))
	joins := make([]int, len(a.Blocks))
	topState := func() []av {
		st := make([]av, isa.NumIntRegs)
		for i := range st {
			st[i] = av{kind: avTop}
		}
		return st
	}
	joinInto := func(bi int, st []av) bool {
		if blockIn[bi] == nil {
			blockIn[bi] = append([]av(nil), st...)
			return true
		}
		changed := false
		for i := range st {
			j := avJoin(blockIn[bi][i], st[i])
			if !j.eq(blockIn[bi][i]) {
				blockIn[bi][i] = j
				changed = true
			}
		}
		if !changed {
			return false
		}
		joins[bi]++
		if joins[bi] > widenLimit {
			// Growing offset intervals (pointer induction in a loop):
			// widen offsets to top, keeping the region typing.
			for i := range blockIn[bi] {
				if blockIn[bi][i].kind != avTop {
					blockIn[bi][i].iv = top
				}
			}
		}
		return true
	}

	visit := func(bi int) (changed []int) {
		b := a.Blocks[bi]
		st := append([]av(nil), blockIn[bi]...)
		for i := b.first; i <= b.last; i++ {
			a.recordEffect(i, st)
			a.avStep(st, a.Prog.Instrs[i])
		}
		for _, si := range b.Succs {
			if joinInto(si, st) {
				changed = append(changed, si)
			}
		}
		return changed
	}
	for _, f := range a.Funcs {
		seeds := a.entries(f)
		for _, bi := range seeds {
			blockIn[bi] = topState()
		}
		a.solve(seeds, visit)
	}
}

// recordEffect resolves instruction i's memory access against the current
// abstract register state and stores its read/write region summary.
func (a *Analysis) recordEffect(i int, st []av) {
	r := a.regions
	in := a.Prog.Instrs[i]
	info := in.Info()
	frame := r.frameOf[a.funcOf[i]]
	switch {
	case info.Stack:
		// PUSH/POP/CALL/RET address through sp under stack discipline:
		// the access lands in the containing function's frame.
		set := r.NewSet()
		set.Add(frame)
		if info.Store {
			r.Writes[i] = set
		} else {
			r.Reads[i] = set
		}
	case info.Load:
		r.Reads[i] = a.accessSet(i, in.Rs1, in.Imm, st)
	case info.Store:
		r.Writes[i] = a.accessSet(i, in.Rs1, in.Imm, st)
	}
}

// accessSet resolves base+imm at instruction i to the set of regions the
// access may touch.
func (a *Analysis) accessSet(i int, base isa.Reg, imm int64, st []av) RegionSet {
	r := a.regions
	set := r.NewSet()
	frame := r.frameOf[a.funcOf[i]]
	if base == isa.SP || base == isa.BP {
		// Stack access: the depth dataflow decides whether it stays in
		// this function's frame. Depth of the accessed address is the
		// register's depth minus the immediate; negative depth reaches
		// above the entry sp into callers' territory.
		d := a.depthIn[i].regDepth(base)
		if !a.depthIn[i].reached || d.Top {
			set.Add(frame)
			set.Add(r.stack)
			return set
		}
		ad := d.add(-imm)
		set.Add(frame)
		if ad.Lo < 0 {
			set.Add(r.stack)
		}
		return set
	}
	switch v := st[base]; v.kind {
	case avPtr:
		set.Add(v.region)
		return set
	case avConst:
		if c, ok := v.iv.Exact(); ok {
			addr := uint64(c + imm)
			if ri, ok := r.RegionAt(addr, a.Prog); ok {
				set.Add(ri)
				return set
			}
			if addr >= isa.StackTop-isa.DefaultStackBytes && addr < isa.StackTop {
				set.Add(r.stack)
				set.Add(frame)
				return set
			}
			// Outside every mapped segment: the access faults before it
			// touches memory; no region effect.
			return set
		}
		return r.unknown.Clone()
	default:
		return r.unknown.Clone()
	}
}
