package analysis

import (
	"fmt"

	"github.com/letgo-hpc/letgo/internal/isa"
)

// Check names a letgo-vet lint rule.
type Check string

// The letgo-vet checks.
const (
	CheckUnreachable Check = "unreachable"     // block no entry path reaches
	CheckFallsOff    Check = "falls-off"       // execution can run past the function end
	CheckMisaligned  Check = "misaligned"      // LD/ST/FLD/FST offset not 8-byte aligned
	CheckUninitRead  Check = "uninit-read"     // register read before any write
	CheckUnbalanced  Check = "unbalanced"      // push/pop mismatch along some path
	CheckBadCall     Check = "bad-call-target" // CALL into a non-function address
	CheckBadBranch   Check = "bad-branch"      // branch leaves the code segment

	// CheckDeadRegionWrite flags stores into a region no instruction ever
	// reads — dead stores at region granularity. Named globals are exempt
	// (they are externally observable program results).
	CheckDeadRegionWrite Check = "dead-region-write"
	// CheckUninitOutput flags an acceptance output whose value depends on
	// a region that is never written and carries no initializer.
	CheckUninitOutput Check = "uninit-output"
)

// Finding is one letgo-vet diagnostic.
type Finding struct {
	Addr  uint64 // code address the finding anchors to
	Func  string // containing function name ("" for anonymous regions)
	Check Check
	Msg   string
}

func (f Finding) String() string {
	where := f.Func
	if where == "" {
		where = "<anon>"
	}
	return fmt.Sprintf("0x%x (%s): %s: %s", f.Addr, where, f.Check, f.Msg)
}

// funcName names a function for diagnostics.
func funcName(f *Func) string { return f.Sym.Name }

// Vet lints the program and returns every finding, in address order per
// check group. A program with zero findings is structurally sound: all
// code is reachable, every path through every function keeps the stack
// balanced, control flow stays inside functions, memory offsets are
// aligned, and no register is read before it is written.
func (a *Analysis) Vet() []Finding {
	var out []Finding
	out = append(out, a.vetReachability()...)
	out = append(out, a.vetAlignment()...)
	out = append(out, a.vetCalls()...)
	out = append(out, a.vetStackBalance()...)
	out = append(out, a.vetUninitReads()...)
	out = append(out, a.vetDeadRegionWrites()...)
	return out
}

// VetOutputs lints the program against its acceptance outputs: the
// checks that need to know which globals the acceptance check reads
// (currently CheckUninitOutput). A nil or empty output list lints
// nothing.
func (a *Analysis) VetOutputs(outputs []string) ([]Finding, error) {
	if len(outputs) == 0 {
		return nil, nil
	}
	ss, err := a.CheckpointSet(outputs)
	if err != nil {
		return nil, err
	}
	return a.vetUninitOutputs(ss), nil
}

// regionAccess tallies which regions reachable code explicitly reads and
// writes. CALL's return-address push and RET's pop are exempted as a
// matched pair: the slot CALL writes is the slot the callee's RET reads,
// but the two land in different abstract frame regions.
func (a *Analysis) regionAccess() (read RegionSet, written RegionSet, firstWrite map[int]int) {
	r := a.Regions()
	read, written = r.NewSet(), r.NewSet()
	firstWrite = make(map[int]int)
	for i := range a.Prog.Instrs {
		if !a.reach[a.blockOf[i]] {
			continue
		}
		if op := a.Prog.Instrs[i].Op; op == isa.CALL || op == isa.RET {
			continue
		}
		if r.Reads[i] != nil {
			read.UnionWith(r.Reads[i])
		}
		if r.Writes[i] != nil {
			for _, ri := range r.Writes[i].Members() {
				if _, seen := firstWrite[ri]; !seen {
					firstWrite[ri] = i
				}
			}
			written.UnionWith(r.Writes[i])
		}
	}
	return read, written, firstWrite
}

// vetDeadRegionWrites flags frame and anonymous-global regions that are
// written but never read: every store into them is dead. Named globals
// are exempt (an only-written global is an externally observable
// result), as are the heap and stack catch-alls (too coarse to judge).
func (a *Analysis) vetDeadRegionWrites() []Finding {
	r := a.Regions()
	read, _, firstWrite := a.regionAccess()
	var out []Finding
	for _, reg := range r.All {
		if reg.Kind != RegionFrame && reg.Kind != RegionAnonGlobal {
			continue
		}
		wi, written := firstWrite[reg.Index]
		if !written || read.Has(reg.Index) {
			continue
		}
		f := a.Funcs[a.funcOf[wi]]
		out = append(out, Finding{
			Addr: a.addr(wi), Func: funcName(f), Check: CheckDeadRegionWrite,
			Msg: fmt.Sprintf("%s writes region %s, which no instruction reads", a.Prog.Instrs[wi].Op, reg.Name),
		})
	}
	return out
}

// vetUninitOutputs flags live regions of the derived checkpoint set that
// no reachable instruction writes and no data span initializes: the
// acceptance check would compare garbage (well, zeros — but zeros by
// accident, not by computation).
func (a *Analysis) vetUninitOutputs(ss *StateSet) []Finding {
	r := a.Regions()
	_, written, _ := a.regionAccess()
	var out []Finding
	for _, ri := range ss.Live.Members() {
		reg := r.All[ri]
		if reg.Kind != RegionGlobal && reg.Kind != RegionAnonGlobal {
			continue
		}
		if written.Has(ri) || a.hasInitializer(reg) {
			continue
		}
		i, f := a.firstReadOf(ri)
		name := ""
		if f != nil {
			name = funcName(f)
		}
		out = append(out, Finding{
			Addr: a.addr(i), Func: name, Check: CheckUninitOutput,
			Msg: fmt.Sprintf("acceptance output depends on region %s, which is never written or initialized", reg.Name),
		})
	}
	return out
}

// hasInitializer reports whether a data span covers any byte of reg.
func (a *Analysis) hasInitializer(reg *Region) bool {
	for _, d := range a.Prog.Data {
		if d.Addr < reg.Addr+reg.Size && d.Addr+uint64(len(d.Bytes)) > reg.Addr {
			return true
		}
	}
	return false
}

// firstReadOf finds the first reachable instruction reading region ri,
// to anchor a diagnostic.
func (a *Analysis) firstReadOf(ri int) (int, *Func) {
	r := a.regions
	for i := range a.Prog.Instrs {
		if a.reach[a.blockOf[i]] && r.Reads[i].Has(ri) {
			return i, a.Funcs[a.funcOf[i]]
		}
	}
	return 0, nil
}

// vetReachability flags unreachable blocks, blocks that can fall off their
// function's end, and branches that leave the code segment. Unreachable
// blocks are reported once per block; uncalled-but-well-formed functions
// are not findings (the entry of every function is a reachability root, so
// dead functions lint like live ones).
func (a *Analysis) vetReachability() []Finding {
	var out []Finding
	for _, b := range a.Blocks {
		f := a.Funcs[b.Func]
		if !a.reach[b.Index] {
			out = append(out, Finding{
				Addr: b.Start, Func: funcName(f), Check: CheckUnreachable,
				Msg: fmt.Sprintf("block [0x%x,0x%x) is unreachable", b.Start, b.End),
			})
			continue // its other defects are moot
		}
		if b.FallsOff {
			out = append(out, Finding{
				Addr: b.End - isa.InstrBytes, Func: funcName(f), Check: CheckFallsOff,
				Msg: "execution can run past the end of the function",
			})
		}
		if b.Escapes {
			lastAddr := b.End - isa.InstrBytes
			in := a.Prog.Instrs[b.last]
			target := uint64(in.Imm)
			if _, ok := a.index(target); !ok {
				out = append(out, Finding{
					Addr: lastAddr, Func: funcName(f), Check: CheckBadBranch,
					Msg: fmt.Sprintf("%s targets 0x%x, outside the code segment", in.Op, target),
				})
			}
			// Cross-function branches inside the segment are a legal
			// tail-call idiom in hand-written assembly; not a finding.
		}
	}
	return out
}

// vetAlignment flags LD/ST/FLD/FST immediates that break the ISA's 8-byte
// alignment rule whenever the base register is itself 8-byte aligned —
// which sp, bp and every segment base are. The check is syntactic over all
// instructions, reachable or not: a misaligned offset is wrong at rest.
func (a *Analysis) vetAlignment() []Finding {
	var out []Finding
	for i, in := range a.Prog.Instrs {
		if !in.Info().Load && !in.Info().Store {
			continue
		}
		if in.Info().Stack { // PUSH/POP/CALL/RET address through sp, no imm
			continue
		}
		if in.Imm%8 != 0 {
			f := a.Funcs[a.funcOf[i]]
			out = append(out, Finding{
				Addr: a.addr(i), Func: funcName(f), Check: CheckMisaligned,
				Msg: fmt.Sprintf("%s offset %+d is not 8-byte aligned", in.Op, in.Imm),
			})
		}
	}
	return out
}

// vetCalls flags CALL instructions whose target is not the entry of a
// function. When the program carries function symbols the target must be a
// symbol address; raw symbol-free programs only require a valid code
// address (any instruction can be an entry there).
func (a *Analysis) vetCalls() []Finding {
	entries := make(map[uint64]bool)
	named := false
	for _, f := range a.Funcs {
		if !f.Anonymous() {
			named = true
			entries[f.Sym.Addr] = true
		}
	}
	var out []Finding
	for i, in := range a.Prog.Instrs {
		if in.Op != isa.CALL {
			continue
		}
		target := uint64(in.Imm)
		f := a.Funcs[a.funcOf[i]]
		if _, ok := a.index(target); !ok {
			out = append(out, Finding{
				Addr: a.addr(i), Func: funcName(f), Check: CheckBadCall,
				Msg: fmt.Sprintf("call targets 0x%x, outside the code segment", target),
			})
			continue
		}
		if named && !entries[target] {
			out = append(out, Finding{
				Addr: a.addr(i), Func: funcName(f), Check: CheckBadCall,
				Msg: fmt.Sprintf("call targets 0x%x, which is not a function entry", target),
			})
		}
	}
	return out
}

// vetStackBalance flags paths on which a function returns with the stack
// off its entry depth, and POPs that can underflow into the caller's
// frame. The stack-depth dataflow supplies per-instruction depth
// intervals; Top intervals are inconclusive and stay silent (the dataflow
// already widened because something opaque touched sp).
func (a *Analysis) vetStackBalance() []Finding {
	var out []Finding
	for i, in := range a.Prog.Instrs {
		if !a.depthIn[i].reached {
			continue
		}
		sp := a.depthIn[i].sp
		f := a.Funcs[a.funcOf[i]]
		switch in.Op {
		case isa.RET:
			// RET pops the return address, so the depth entering it must
			// be exactly 0 for the function to return where it was called
			// from. Anonymous regions get the weaker "don't underflow"
			// check: without symbols, entry depth 0 is a guess.
			if d, exact := sp.Exact(); exact && d != 0 && !f.Anonymous() {
				out = append(out, Finding{
					Addr: a.addr(i), Func: funcName(f), Check: CheckUnbalanced,
					Msg: fmt.Sprintf("ret with stack depth %d (want 0): push/pop unbalanced on some path", d),
				})
			} else if !sp.Top && sp.Lo != sp.Hi && !f.Anonymous() {
				out = append(out, Finding{
					Addr: a.addr(i), Func: funcName(f), Check: CheckUnbalanced,
					Msg: fmt.Sprintf("ret with path-dependent stack depth %s: push/pop unbalanced on some path", sp),
				})
			} else if !sp.Top && sp.Lo < 0 {
				out = append(out, Finding{
					Addr: a.addr(i), Func: funcName(f), Check: CheckUnbalanced,
					Msg: fmt.Sprintf("ret can pop above the function's entry sp (depth %s)", sp),
				})
			}
		case isa.POP:
			// Popping at depth < 8 reads at or above the return address.
			if !sp.Top && sp.Lo < 8 {
				out = append(out, Finding{
					Addr: a.addr(i), Func: funcName(f), Check: CheckUnbalanced,
					Msg: fmt.Sprintf("pop at stack depth %s can read the return address or the caller's frame", sp),
				})
			}
		default:
		}
	}
	return out
}

// vetUninitReads flags registers a function can read before writing. Only
// named functions are checked — the live-in set at a function entry, minus
// the calling convention's inputs (arguments x1..x6/f1..f6, sp, bp), is
// exactly the set of registers some path reads before any def. Anonymous
// regions (raw programs without symbols) are exempt: without a convention
// there is no contract to check, and the machine resets every register to
// zero so such reads are at least defined.
func (a *Analysis) vetUninitReads() []Finding {
	// Arguments may be read unwritten, and so may x0/f0: RET's use set
	// models "the caller may read the return value", which makes x0/f0
	// live through any void function that merely preserves them.
	allowed := callUses // x1..x6, f1..f6, sp, bp
	allowed.addInt(0)
	allowed.addFloat(0)

	var out []Finding
	for _, f := range a.Funcs {
		if f.Anonymous() || len(f.Blocks) == 0 {
			continue
		}
		entry := f.Blocks[0]
		if bad := a.liveIn[entry].minus(allowed); !bad.Empty() {
			out = append(out, Finding{
				Addr: a.Blocks[entry].Start, Func: funcName(f), Check: CheckUninitRead,
				Msg: fmt.Sprintf("%s may be read before being written (not an argument register)", bad),
			})
		}
	}
	return out
}
