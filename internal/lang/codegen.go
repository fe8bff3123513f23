package lang

import (
	"fmt"
	"math"
	"strings"
)

// Register conventions used by generated code:
//
//	x0 / f0     return values
//	x1..x6      integer arguments (positional among int params)
//	f1..f6      float arguments (positional among float params)
//	x7..x12     integer expression temporaries
//	f7..f15     float expression temporaries
//	x13         address/zero scratch (never live across expression nodes)
//	bp, sp      frame discipline exactly as in the paper's Listing 1
//
// Every function gets the full prologue (push bp; mov bp, sp;
// addi sp, sp, -frame), so analysis.PrologueFrame works on all compiled code.
const (
	firstIntTemp   = 7 // x7
	maxIntTemps    = 6
	firstFloatTemp = 7 // f7
	maxFloatTemps  = 9
	scratch        = "x13"
)

type operand struct {
	float bool
	idx   int // temp index within its class
}

func (o operand) reg() string {
	if o.float {
		return fmt.Sprintf("f%d", firstFloatTemp+o.idx)
	}
	return fmt.Sprintf("x%d", firstIntTemp+o.idx)
}

type scope map[string]int // local name -> bp-relative slot offset (positive magnitude)

type loopLabels struct {
	cont string
	brk  string
}

type codegen struct {
	out     strings.Builder // full program
	body    strings.Builder // current function body (emitted before prologue is known)
	globals map[string]*VarDecl
	funcs   map[string]*FuncDecl

	fn     *FuncDecl
	scopes []scope
	// loops holds (continue-target, break-target) labels, innermost last.
	loops  []loopLabels
	nslots int
	retLbl string
	intD   int // live int temps
	floatD int // live float temps
	labelN int
}

// Generate lowers a checked program to assembly text.
func Generate(prog *Program) (string, error) {
	g := &codegen{
		globals: map[string]*VarDecl{},
		funcs:   map[string]*FuncDecl{},
	}
	for _, d := range prog.Globals {
		g.globals[d.Name] = d
	}
	for _, f := range prog.Funcs {
		g.funcs[f.Name] = f
	}

	// Data directives.
	for _, d := range prog.Globals {
		switch {
		case d.ArrayLen > 0 && len(d.ArrayInit) > 0:
			if err := g.emitArrayInit(d); err != nil {
				return "", err
			}
		case d.ArrayLen > 0:
			fmt.Fprintf(&g.out, ".global %s %d\n", d.Name, 8*d.ArrayLen)
		case d.Init != nil:
			g.emitGlobalInit(d)
		case d.Type == TFloat:
			fmt.Fprintf(&g.out, ".double %s 0.0\n", d.Name)
		default:
			fmt.Fprintf(&g.out, ".int %s 0\n", d.Name)
		}
	}

	// Startup stub.
	g.out.WriteString(".entry _start\n_start:\n    call main\n    halt\n")

	for _, f := range prog.Funcs {
		if err := g.genFunc(f); err != nil {
			return "", err
		}
	}
	return g.out.String(), nil
}

// emitArrayInit lowers a global array with element initializers. Elements
// must have folded to literals; shorter lists are zero-padded to the
// declared length.
func (g *codegen) emitArrayInit(d *VarDecl) error {
	directive := ".double"
	if d.Type == TInt {
		directive = ".int"
	}
	fmt.Fprintf(&g.out, "%s %s", directive, d.Name)
	for i := int64(0); i < d.ArrayLen; i++ {
		if i < int64(len(d.ArrayInit)) {
			switch v := d.ArrayInit[i].(type) {
			case *IntLit:
				fmt.Fprintf(&g.out, " %d", v.Value)
			case *FloatLit:
				fmt.Fprintf(&g.out, " %s", formatFloat(v.Value))
			default:
				return cerrf(d.Line, d.Col, "array %q initializer %d is not a compile-time constant", d.Name, i)
			}
			continue
		}
		if d.Type == TInt {
			fmt.Fprintf(&g.out, " 0")
		} else {
			fmt.Fprintf(&g.out, " 0.0")
		}
	}
	fmt.Fprintf(&g.out, "\n")
	return nil
}

func (g *codegen) emitGlobalInit(d *VarDecl) {
	neg := false
	lit := d.Init
	if u, ok := lit.(*UnaryExpr); ok {
		neg = true
		lit = u.X
	}
	switch l := lit.(type) {
	case *IntLit:
		v := l.Value
		if neg {
			v = -v
		}
		fmt.Fprintf(&g.out, ".int %s %d\n", d.Name, v)
	case *FloatLit:
		v := l.Value
		if neg {
			v = -v
		}
		fmt.Fprintf(&g.out, ".double %s %s\n", d.Name, formatFloat(v))
	}
}

// formatFloat renders a float so the assembler re-parses it exactly,
// including the IEEE specials constant folding can produce.
func formatFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Sprintf("%g", v) // "NaN", "+Inf", "-Inf": ParseFloat round-trips them
	}
	s := fmt.Sprintf("%.17g", v)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

func (g *codegen) label() string {
	g.labelN++
	return fmt.Sprintf(".L%d", g.labelN)
}

func (g *codegen) emit(format string, args ...any) {
	fmt.Fprintf(&g.body, "    "+format+"\n", args...)
}

func (g *codegen) pushScope() { g.scopes = append(g.scopes, scope{}) }
func (g *codegen) popScope()  { g.scopes = g.scopes[:len(g.scopes)-1] }

func (g *codegen) declareLocal(name string) int {
	g.nslots++
	off := 8 * g.nslots
	g.scopes[len(g.scopes)-1][name] = off
	return off
}

// localSlot finds a local's bp-offset; ok=false means the name is global.
func (g *codegen) localSlot(name string) (int, bool) {
	for i := len(g.scopes) - 1; i >= 0; i-- {
		if off, ok := g.scopes[i][name]; ok {
			return off, true
		}
	}
	return 0, false
}

func (g *codegen) intTemp(p pos) (operand, error) {
	if g.intD >= maxIntTemps {
		return operand{}, cerrf(p.Line, p.Col, "expression too deep (needs more than %d integer temporaries); split it", maxIntTemps)
	}
	o := operand{float: false, idx: g.intD}
	g.intD++
	return o, nil
}

func (g *codegen) floatTemp(p pos) (operand, error) {
	if g.floatD >= maxFloatTemps {
		return operand{}, cerrf(p.Line, p.Col, "expression too deep (needs more than %d float temporaries); split it", maxFloatTemps)
	}
	o := operand{float: true, idx: g.floatD}
	g.floatD++
	return o, nil
}

// release frees the most recently allocated temp of the operand's class.
// Temps are stack-allocated, so releases must be LIFO per class; the
// generator's structure guarantees it.
func (g *codegen) release(o operand) {
	if o.float {
		g.floatD--
	} else {
		g.intD--
	}
}

func (g *codegen) genFunc(f *FuncDecl) error {
	g.fn = f
	g.body.Reset()
	g.nslots = 0
	g.intD, g.floatD = 0, 0
	g.retLbl = g.label()
	g.pushScope()
	defer g.popScope()

	// Copy argument registers into local slots so parameters behave like
	// ordinary locals (and survive nested calls).
	intArg, floatArg := 0, 0
	for _, p := range f.Params {
		off := g.declareLocal(p.Name)
		if p.Type == TFloat {
			floatArg++
			if floatArg > 6 {
				return cerrf(p.Line, p.Col, "too many float parameters (max 6)")
			}
			g.emit("fst f%d, [bp-%d]", floatArg, off)
		} else {
			intArg++
			if intArg > 6 {
				return cerrf(p.Line, p.Col, "too many int parameters (max 6)")
			}
			g.emit("st x%d, [bp-%d]", intArg, off)
		}
	}

	if err := g.genBlock(f.Body); err != nil {
		return err
	}

	// Assemble the function: prologue with the final frame size, body,
	// epilogue. The frame is always at least 8 bytes so every function
	// carries the full Listing-1 prologue.
	frame := 8 * g.nslots
	if frame < 8 {
		frame = 8
	}
	fmt.Fprintf(&g.out, "%s:\n", f.Name)
	fmt.Fprintf(&g.out, "    push bp\n    mov bp, sp\n    addi sp, sp, -%d\n", frame)
	g.out.WriteString(g.body.String())
	fmt.Fprintf(&g.out, "%s:\n    mov sp, bp\n    pop bp\n    ret\n", g.retLbl)
	return nil
}

func (g *codegen) genBlock(b *Block) error {
	g.pushScope()
	defer g.popScope()
	for _, s := range b.Stmts {
		if err := g.genStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *codegen) genStmt(s Stmt) error {
	switch st := s.(type) {
	case *VarDecl:
		off := g.declareLocal(st.Name)
		if st.Init != nil {
			o, err := g.genExpr(st.Init)
			if err != nil {
				return err
			}
			g.storeLocal(o, off)
			g.release(o)
		} else {
			// Zero-initialize locals deterministically.
			if st.Type == TFloat {
				o, err := g.floatTemp(st.pos)
				if err != nil {
					return err
				}
				g.emit("fli %s, 0.0", o.reg())
				g.emit("fst %s, [bp-%d]", o.reg(), off)
				g.release(o)
			} else {
				g.emit("li %s, 0", scratch)
				g.emit("st %s, [bp-%d]", scratch, off)
			}
		}
		return nil

	case *AssignStmt:
		return g.genAssign(st)

	case *IfStmt:
		cond, err := g.genExpr(st.Cond)
		if err != nil {
			return err
		}
		elseLbl, endLbl := g.label(), g.label()
		g.emit("li %s, 0", scratch)
		g.emit("beq %s, %s, %s", cond.reg(), scratch, elseLbl)
		g.release(cond)
		if err := g.genBlock(st.Then); err != nil {
			return err
		}
		g.emit("jmp %s", endLbl)
		fmt.Fprintf(&g.body, "%s:\n", elseLbl)
		if st.Else != nil {
			if err := g.genStmt(st.Else); err != nil {
				return err
			}
		}
		fmt.Fprintf(&g.body, "%s:\n", endLbl)
		return nil

	case *WhileStmt:
		condLbl, endLbl := g.label(), g.label()
		fmt.Fprintf(&g.body, "%s:\n", condLbl)
		cond, err := g.genExpr(st.Cond)
		if err != nil {
			return err
		}
		g.emit("li %s, 0", scratch)
		g.emit("beq %s, %s, %s", cond.reg(), scratch, endLbl)
		g.release(cond)
		g.loops = append(g.loops, loopLabels{cont: condLbl, brk: endLbl})
		err = g.genBlock(st.Body)
		g.loops = g.loops[:len(g.loops)-1]
		if err != nil {
			return err
		}
		g.emit("jmp %s", condLbl)
		fmt.Fprintf(&g.body, "%s:\n", endLbl)
		return nil

	case *ForStmt:
		g.pushScope()
		defer g.popScope()
		if st.Init != nil {
			if err := g.genAssign(st.Init); err != nil {
				return err
			}
		}
		condLbl, postLbl, endLbl := g.label(), g.label(), g.label()
		fmt.Fprintf(&g.body, "%s:\n", condLbl)
		if st.Cond != nil {
			cond, err := g.genExpr(st.Cond)
			if err != nil {
				return err
			}
			g.emit("li %s, 0", scratch)
			g.emit("beq %s, %s, %s", cond.reg(), scratch, endLbl)
			g.release(cond)
		}
		g.loops = append(g.loops, loopLabels{cont: postLbl, brk: endLbl})
		err := g.genBlock(st.Body)
		g.loops = g.loops[:len(g.loops)-1]
		if err != nil {
			return err
		}
		fmt.Fprintf(&g.body, "%s:\n", postLbl)
		if st.Post != nil {
			if err := g.genAssign(st.Post); err != nil {
				return err
			}
		}
		g.emit("jmp %s", condLbl)
		fmt.Fprintf(&g.body, "%s:\n", endLbl)
		return nil

	case *ReturnStmt:
		if st.Value != nil {
			o, err := g.genExpr(st.Value)
			if err != nil {
				return err
			}
			if o.float {
				g.emit("fmov f0, %s", o.reg())
			} else {
				g.emit("mov x0, %s", o.reg())
			}
			g.release(o)
		}
		g.emit("jmp %s", g.retLbl)
		return nil

	case *BreakStmt:
		g.emit("jmp %s", g.loops[len(g.loops)-1].brk)
		return nil

	case *ContinueStmt:
		g.emit("jmp %s", g.loops[len(g.loops)-1].cont)
		return nil

	case *ExprStmt:
		call := st.X.(*CallExpr)
		o, used, err := g.genCall(call, false)
		if err != nil {
			return err
		}
		if used {
			g.release(o)
		}
		return nil

	case *Block:
		return g.genBlock(st)
	}
	return fmt.Errorf("minic: codegen: unknown statement %T", s)
}

func (g *codegen) storeLocal(o operand, off int) {
	if o.float {
		g.emit("fst %s, [bp-%d]", o.reg(), off)
	} else {
		g.emit("st %s, [bp-%d]", o.reg(), off)
	}
}

func (g *codegen) genAssign(st *AssignStmt) error {
	val, err := g.genExpr(st.Value)
	if err != nil {
		return err
	}
	if st.Index != nil {
		idx, err := g.genExpr(st.Index)
		if err != nil {
			return err
		}
		g.emit("muli %s, %s, 8", idx.reg(), idx.reg())
		g.emit("li %s, %s", scratch, st.Name)
		g.emit("add %s, %s, %s", scratch, scratch, idx.reg())
		if val.float {
			g.emit("fst %s, [%s]", val.reg(), scratch)
		} else {
			g.emit("st %s, [%s]", val.reg(), scratch)
		}
		g.release(idx)
		g.release(val)
		return nil
	}
	if off, isLocal := g.localSlot(st.Name); isLocal {
		g.storeLocal(val, off)
	} else {
		g.emit("li %s, %s", scratch, st.Name)
		if val.float {
			g.emit("fst %s, [%s]", val.reg(), scratch)
		} else {
			g.emit("st %s, [%s]", val.reg(), scratch)
		}
	}
	g.release(val)
	return nil
}

func (g *codegen) genExpr(e Expr) (operand, error) {
	switch x := e.(type) {
	case *IntLit:
		o, err := g.intTemp(x.pos)
		if err != nil {
			return o, err
		}
		g.emit("li %s, %d", o.reg(), x.Value)
		return o, nil

	case *FloatLit:
		o, err := g.floatTemp(x.pos)
		if err != nil {
			return o, err
		}
		g.emit("fli %s, %s", o.reg(), formatFloat(x.Value))
		return o, nil

	case *VarRef:
		if off, isLocal := g.localSlot(x.Name); isLocal {
			if x.Type() == TFloat {
				o, err := g.floatTemp(x.pos)
				if err != nil {
					return o, err
				}
				g.emit("fld %s, [bp-%d]", o.reg(), off)
				return o, nil
			}
			o, err := g.intTemp(x.pos)
			if err != nil {
				return o, err
			}
			g.emit("ld %s, [bp-%d]", o.reg(), off)
			return o, nil
		}
		g.emit("li %s, %s", scratch, x.Name)
		if x.Type() == TFloat {
			o, err := g.floatTemp(x.pos)
			if err != nil {
				return o, err
			}
			g.emit("fld %s, [%s]", o.reg(), scratch)
			return o, nil
		}
		o, err := g.intTemp(x.pos)
		if err != nil {
			return o, err
		}
		g.emit("ld %s, [%s]", o.reg(), scratch)
		return o, nil

	case *IndexExpr:
		idx, err := g.genExpr(x.Index)
		if err != nil {
			return operand{}, err
		}
		g.emit("muli %s, %s, 8", idx.reg(), idx.reg())
		g.emit("li %s, %s", scratch, x.Name)
		g.emit("add %s, %s, %s", scratch, scratch, idx.reg())
		g.release(idx)
		if x.Type() == TFloat {
			o, err := g.floatTemp(x.pos)
			if err != nil {
				return o, err
			}
			g.emit("fld %s, [%s]", o.reg(), scratch)
			return o, nil
		}
		o, err := g.intTemp(x.pos)
		if err != nil {
			return o, err
		}
		g.emit("ld %s, [%s]", o.reg(), scratch)
		return o, nil

	case *UnaryExpr:
		o, err := g.genExpr(x.X)
		if err != nil {
			return o, err
		}
		switch x.Op {
		case MINUS:
			if o.float {
				g.emit("fneg %s, %s", o.reg(), o.reg())
			} else {
				g.emit("neg %s, %s", o.reg(), o.reg())
			}
		case NOT:
			g.emit("li %s, 0", scratch)
			g.emit("seq %s, %s, %s", o.reg(), o.reg(), scratch)
		}
		return o, nil

	case *BinaryExpr:
		return g.genBinary(x)

	case *CallExpr:
		o, used, err := g.genCall(x, true)
		if err != nil {
			return o, err
		}
		if !used {
			return o, cerrf(x.Line, x.Col, "void call %q used as a value", x.Name)
		}
		return o, nil
	}
	return operand{}, fmt.Errorf("minic: codegen: unknown expression %T", e)
}

func (g *codegen) genBinary(x *BinaryExpr) (operand, error) {
	l, err := g.genExpr(x.L)
	if err != nil {
		return l, err
	}
	r, err := g.genExpr(x.R)
	if err != nil {
		return r, err
	}
	defer g.release(r)

	floatOperands := l.float

	if !floatOperands {
		// Pure integer operations.
		var op string
		switch x.Op {
		case PLUS:
			op = "add"
		case MINUS:
			op = "sub"
		case STAR:
			op = "mul"
		case SLASH:
			op = "div"
		case PERCENT:
			op = "rem"
		case EQ:
			op = "seq"
		case NE:
			op = "sne"
		case LT:
			op = "slt"
		case LE:
			op = "sle"
		case GT: // a > b  ==  b < a
			g.emit("slt %s, %s, %s", l.reg(), r.reg(), l.reg())
			return l, nil
		case GE:
			g.emit("sle %s, %s, %s", l.reg(), r.reg(), l.reg())
			return l, nil
		case AND, OR:
			// Normalize both to 0/1, then bitwise combine. MiniC does not
			// short-circuit; operands are always evaluated.
			g.emit("li %s, 0", scratch)
			g.emit("sne %s, %s, %s", l.reg(), l.reg(), scratch)
			g.emit("sne %s, %s, %s", r.reg(), r.reg(), scratch)
			if x.Op == AND {
				g.emit("and %s, %s, %s", l.reg(), l.reg(), r.reg())
			} else {
				g.emit("or %s, %s, %s", l.reg(), l.reg(), r.reg())
			}
			return l, nil
		default:
			return l, cerrf(x.Line, x.Col, "bad integer operator")
		}
		g.emit("%s %s, %s, %s", op, l.reg(), l.reg(), r.reg())
		return l, nil
	}

	// Float operands.
	switch x.Op {
	case PLUS:
		g.emit("fadd %s, %s, %s", l.reg(), l.reg(), r.reg())
		return l, nil
	case MINUS:
		g.emit("fsub %s, %s, %s", l.reg(), l.reg(), r.reg())
		return l, nil
	case STAR:
		g.emit("fmul %s, %s, %s", l.reg(), l.reg(), r.reg())
		return l, nil
	case SLASH:
		g.emit("fdiv %s, %s, %s", l.reg(), l.reg(), r.reg())
		return l, nil
	}

	// Float comparison: result is an int temp.
	o, err := g.intTemp(x.pos)
	if err != nil {
		return o, err
	}
	switch x.Op {
	case EQ:
		g.emit("feq %s, %s, %s", o.reg(), l.reg(), r.reg())
	case NE:
		g.emit("fne %s, %s, %s", o.reg(), l.reg(), r.reg())
	case LT:
		g.emit("flt %s, %s, %s", o.reg(), l.reg(), r.reg())
	case LE:
		g.emit("fle %s, %s, %s", o.reg(), l.reg(), r.reg())
	case GT:
		g.emit("flt %s, %s, %s", o.reg(), r.reg(), l.reg())
	case GE:
		g.emit("fle %s, %s, %s", o.reg(), r.reg(), l.reg())
	default:
		return o, cerrf(x.Line, x.Col, "bad float operator")
	}
	// Release l after allocating the int result; LIFO order per class
	// holds because l is the newest *float* temp.
	g.release(l)
	return o, nil
}

// genCall emits a call to a builtin or user function. It returns the
// result operand and whether the call produced a value.
func (g *codegen) genCall(x *CallExpr, wantValue bool) (operand, bool, error) {
	// Builtins that compile to single instructions.
	switch x.Name {
	case "sqrt", "fabs":
		o, err := g.genExpr(x.Args[0])
		if err != nil {
			return o, false, err
		}
		op := map[string]string{"sqrt": "fsqrt", "fabs": "fabs"}[x.Name]
		g.emit("%s %s, %s", op, o.reg(), o.reg())
		return o, true, nil
	case "fmin", "fmax":
		l, err := g.genExpr(x.Args[0])
		if err != nil {
			return l, false, err
		}
		r, err := g.genExpr(x.Args[1])
		if err != nil {
			return r, false, err
		}
		g.emit("%s %s, %s, %s", x.Name, l.reg(), l.reg(), r.reg())
		g.release(r)
		return l, true, nil
	case "int":
		o, err := g.genExpr(x.Args[0])
		if err != nil {
			return o, false, err
		}
		if !o.float {
			return o, true, nil // int(int) is the identity
		}
		res, err := g.intTemp(x.pos)
		if err != nil {
			return res, false, err
		}
		g.emit("f2i %s, %s", res.reg(), o.reg())
		g.release(o)
		return res, true, nil
	case "float":
		o, err := g.genExpr(x.Args[0])
		if err != nil {
			return o, false, err
		}
		if o.float {
			return o, true, nil
		}
		res, err := g.floatTemp(x.pos)
		if err != nil {
			return res, false, err
		}
		g.emit("i2f %s, %s", res.reg(), o.reg())
		g.release(o)
		return res, true, nil
	case "print":
		o, err := g.genExpr(x.Args[0])
		if err != nil {
			return o, false, err
		}
		if o.float {
			g.emit("printf %s", o.reg())
		} else {
			g.emit("printi %s", o.reg())
		}
		g.release(o)
		return operand{}, false, nil
	case "assert":
		o, err := g.genExpr(x.Args[0])
		if err != nil {
			return o, false, err
		}
		ok := g.label()
		g.emit("li %s, 0", scratch)
		g.emit("bne %s, %s, %s", o.reg(), scratch, ok)
		g.emit("abort")
		fmt.Fprintf(&g.body, "%s:\n", ok)
		g.release(o)
		return operand{}, false, nil
	case "abort":
		g.emit("abort")
		return operand{}, false, nil
	case "cycles":
		o, err := g.intTemp(x.pos)
		if err != nil {
			return o, false, err
		}
		g.emit("cycles %s", o.reg())
		return o, true, nil
	}

	// User function call.
	f := g.funcs[x.Name]

	// 1. Evaluate arguments into temps.
	args := make([]operand, len(x.Args))
	for i, a := range x.Args {
		o, err := g.genExpr(a)
		if err != nil {
			return o, false, err
		}
		args[i] = o
	}

	// 2. Move argument temps into the argument registers and release them
	//    (in LIFO order).
	intArg, floatArg := 0, 0
	moves := make([]string, 0, len(args))
	for i, o := range args {
		if f.Params[i].Type == TFloat {
			floatArg++
			moves = append(moves, fmt.Sprintf("fmov f%d, %s", floatArg, o.reg()))
		} else {
			intArg++
			moves = append(moves, fmt.Sprintf("mov x%d, %s", intArg, o.reg()))
		}
	}
	for _, mv := range moves {
		g.emit("%s", mv)
	}
	for i := len(args) - 1; i >= 0; i-- {
		g.release(args[i])
	}

	// 3. Spill temps that are still live across the call (partial results
	//    of an enclosing expression). Integer temps go through push/pop;
	//    float temps go through explicit sp adjustment.
	liveInt, liveFloat := g.intD, g.floatD
	for i := 0; i < liveInt; i++ {
		g.emit("push x%d", firstIntTemp+i)
	}
	for i := 0; i < liveFloat; i++ {
		g.emit("addi sp, sp, -8")
		g.emit("fst f%d, [sp+0]", firstFloatTemp+i)
	}

	g.emit("call %s", x.Name)

	for i := liveFloat - 1; i >= 0; i-- {
		g.emit("fld f%d, [sp+0]", firstFloatTemp+i)
		g.emit("addi sp, sp, 8")
	}
	for i := liveInt - 1; i >= 0; i-- {
		g.emit("pop x%d", firstIntTemp+i)
	}

	// 4. Capture the return value.
	if f.Ret == TVoid || !wantValue {
		return operand{}, f.Ret != TVoid && wantValue, nil
	}
	if f.Ret == TFloat {
		o, err := g.floatTemp(x.pos)
		if err != nil {
			return o, false, err
		}
		g.emit("fmov %s, f0", o.reg())
		return o, true, nil
	}
	o, err := g.intTemp(x.pos)
	if err != nil {
		return o, false, err
	}
	g.emit("mov %s, x0", o.reg())
	return o, true, nil
}
