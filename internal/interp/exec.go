package interp

import (
	"errors"
	"fmt"

	"clgen/internal/clc"
)

// The interpreter compiles each function body once, when the Env is
// built, into a tree of Go closures: statements become stmtFn and
// expressions exprFn. Everything that does not depend on run-time values
// is settled at compile time: each local variable becomes an index into
// the frame's slots, file-scope names become constants, built-ins are
// resolved to their implementations, and swizzle lanes and compound
// operators are looked up once.
//
// Every statement and every expression evaluation charges one step of
// the launch's budget on entry, and each loop iteration charges one more;
// lvalue and address-of resolution charge nothing themselves. Operands
// are evaluated, profile counters bumped and errors raised in one fixed
// order, so a launch that runs out of budget stops at a well-defined
// point with a well-defined partial profile.

// errCancelled unwinds work-item goroutines after another item failed.
var errCancelled = errors.New("interp: cancelled")

// ctrl is the statement-level control-flow signal.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

type (
	stmtFn func(f *frame) (ctrl, error)
	exprFn func(f *frame) (Value, error)
	lvalFn func(f *frame) (location, error)
)

// slot is the storage of one variable. An array variable, or a scalar
// whose address was taken, lives in a buffer; its val is then the pointer
// to the buffer's first element.
type slot struct {
	val   Value
	array bool
}

// frame is the execution state of one work-item: its ids, the launch's
// shared counters, and the slots of the function it is running.
type frame struct {
	gid    [3]int64 // global id
	lid    [3]int64 // local id
	grp    [3]int64 // group id
	gsize  [3]int64
	lsize  [3]int64
	ngrp   [3]int64
	prof   *Profile
	budget *int64
	yield  func() error // barrier handoff; nil on the fast path
	cancel *bool

	// groupLocals holds the work-group's __local arrays declared in
	// function bodies, indexed by their compile-time group-local index;
	// all work-items of a group share it.
	groupLocals []*Buffer

	slots  []slot // the running function's variables
	stack  []slot // backing store for the slots of nested calls
	sp     int
	argv   []Value // argument stack of calls being set up
	retVal Value
	depth  int
}

const maxCallDepth = 64

func (f *frame) step() error {
	*f.budget--
	if *f.budget < 0 {
		return ErrStepLimit
	}
	if f.cancel != nil && *f.cancel {
		return errCancelled
	}
	return nil
}

// countMem records a memory access against the profile.
func (f *frame) countMem(space clc.AddrSpace, width int, store bool) {
	if width < 1 {
		width = 1
	}
	n := int64(width)
	switch space {
	case clc.Global, clc.Constant:
		if store {
			f.prof.GlobalStores += n
		} else {
			f.prof.GlobalLoads += n
		}
	case clc.Local:
		if store {
			f.prof.LocalStores += n
		} else {
			f.prof.LocalLoads += n
		}
	default:
		f.prof.PrivateOps += n
	}
}

func (f *frame) countArith(kind clc.ScalarKind, width int) {
	if width < 1 {
		width = 1
	}
	if kind.IsFloat() {
		f.prof.FloatOps += int64(width)
	} else {
		f.prof.IntOps += int64(width)
	}
}

// function is one compiled function body.
type function struct {
	decl   *clc.FuncDecl
	nslots int    // parameters first, then every local declaration
	body   stmtFn // the body block, run without a step of its own
}

// call runs fn with the given argument values in a fresh set of slots.
func (f *frame) call(fn *function, args []Value) (Value, error) {
	fd := fn.decl
	if f.depth >= maxCallDepth {
		return Value{}, fmt.Errorf("interp: call depth limit in %q", fd.Name)
	}
	f.depth++
	saved, savedSP := f.slots, f.sp
	if f.sp+fn.nslots > len(f.stack) {
		// Callers keep their slices of the old stack.
		f.stack = make([]slot, 2*(f.sp+fn.nslots))
	}
	f.slots = f.stack[f.sp : f.sp+fn.nslots : f.sp+fn.nslots]
	f.sp += fn.nslots
	clear(f.slots)
	defer func() {
		f.slots, f.sp = saved, savedSP
		f.depth--
	}()
	if len(args) != len(fd.Params) {
		return Value{}, fmt.Errorf("interp: %q called with %d args, want %d", fd.Name, len(args), len(fd.Params))
	}
	for i, p := range fd.Params {
		v := args[i]
		if !v.IsPointer() {
			conv, err := Convert(v, p.Type)
			if err != nil {
				return Value{}, fmt.Errorf("interp: argument %d of %q: %w", i, fd.Name, err)
			}
			v = conv
		}
		f.slots[i] = slot{val: v}
	}
	f.retVal = Value{}
	ct, err := fn.body(f)
	if err != nil {
		return Value{}, err
	}
	if ct == ctrlReturn {
		return f.retVal, nil
	}
	return Value{}, nil
}

// evalArgs evaluates args onto the frame's argument stack and returns
// them; the caller pops them by truncating f.argv to its length before
// the call.
func (f *frame) evalArgs(args []exprFn) ([]Value, error) {
	base := len(f.argv)
	for _, a := range args {
		v, err := a(f)
		if err != nil {
			f.argv = f.argv[:base]
			return nil, err
		}
		f.argv = append(f.argv, v)
	}
	return f.argv[base:len(f.argv):len(f.argv)], nil
}

// compiler lowers one function body. Scopes map names to slot indices
// while the body is walked in source order, so each use resolves to the
// declaration that is in scope at that point.
type compiler struct {
	env    *Env
	scopes []map[string]int
	nslots int
}

func (c *compiler) push() { c.scopes = append(c.scopes, map[string]int{}) }
func (c *compiler) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *compiler) declare(name string) int {
	idx := c.nslots
	c.nslots++
	c.scopes[len(c.scopes)-1][name] = idx
	return idx
}

func (c *compiler) lookup(name string) (int, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if idx, ok := c.scopes[i][name]; ok {
			return idx, true
		}
	}
	return 0, false
}

// compileFunction fills in fn's body; every function of the Env exists
// (bodiless) before any is compiled, so calls resolve even when recursive.
func (env *Env) compileFunction(fn *function) {
	c := &compiler{env: env}
	c.push()
	for _, p := range fn.decl.Params {
		c.declare(p.Name)
	}
	fn.body = c.block(fn.decl.Body)
	fn.nslots = c.nslots
}

// block compiles the statements of b in a new scope; the result charges
// no step of its own.
func (c *compiler) block(b *clc.BlockStmt) stmtFn {
	c.push()
	stmts := make([]stmtFn, len(b.Stmts))
	for i, s := range b.Stmts {
		stmts[i] = c.stmt(s)
	}
	c.pop()
	return func(f *frame) (ctrl, error) {
		for _, s := range stmts {
			ct, err := s(f)
			if err != nil || ct != ctrlNone {
				return ct, err
			}
		}
		return ctrlNone, nil
	}
}

// stepped wraps a statement body with the step every statement charges.
func stepped(body stmtFn) stmtFn {
	return func(f *frame) (ctrl, error) {
		if err := f.step(); err != nil {
			return ctrlNone, err
		}
		return body(f)
	}
}

func (c *compiler) stmt(s clc.Stmt) stmtFn {
	switch x := s.(type) {
	case *clc.BlockStmt:
		return stepped(c.block(x))
	case *clc.EmptyStmt:
		return stepped(func(f *frame) (ctrl, error) { return ctrlNone, nil })
	case *clc.DeclStmt:
		decls := make([]func(*frame) error, len(x.Decls))
		for i, d := range x.Decls {
			decls[i] = c.decl(d)
		}
		return stepped(func(f *frame) (ctrl, error) {
			for _, d := range decls {
				if err := d(f); err != nil {
					return ctrlNone, err
				}
			}
			return ctrlNone, nil
		})
	case *clc.ExprStmt:
		e := c.expr(x.X)
		return stepped(func(f *frame) (ctrl, error) {
			_, err := e(f)
			return ctrlNone, err
		})
	case *clc.IfStmt:
		cond, then := c.expr(x.Cond), c.stmt(x.Then)
		var els stmtFn
		if x.Else != nil {
			els = c.stmt(x.Else)
		}
		return stepped(func(f *frame) (ctrl, error) {
			ok, err := f.branch(cond)
			if err != nil {
				return ctrlNone, err
			}
			if ok {
				return then(f)
			}
			if els != nil {
				return els(f)
			}
			return ctrlNone, nil
		})
	case *clc.ForStmt:
		return stepped(c.forStmt(x))
	case *clc.WhileStmt:
		return stepped(loop(nil, c.expr(x.Cond), c.stmt(x.Body), nil, false))
	case *clc.DoWhileStmt:
		body := c.stmt(x.Body) // compiled before cond, in source order
		return stepped(loop(nil, c.expr(x.Cond), body, nil, true))
	case *clc.ReturnStmt:
		if x.X == nil {
			return stepped(func(f *frame) (ctrl, error) { return ctrlReturn, nil })
		}
		e := c.expr(x.X)
		return stepped(func(f *frame) (ctrl, error) {
			v, err := e(f)
			if err != nil {
				return ctrlNone, err
			}
			f.retVal = v
			return ctrlReturn, nil
		})
	case *clc.BreakStmt:
		return stepped(func(f *frame) (ctrl, error) { return ctrlBreak, nil })
	case *clc.ContinueStmt:
		return stepped(func(f *frame) (ctrl, error) { return ctrlContinue, nil })
	case *clc.SwitchStmt:
		return stepped(c.switchStmt(x))
	}
	err := fmt.Errorf("interp: unsupported statement %T", s)
	return stepped(func(f *frame) (ctrl, error) { return ctrlNone, err })
}

func (c *compiler) forStmt(x *clc.ForStmt) stmtFn {
	c.push()
	defer c.pop()
	var init stmtFn
	if x.Init != nil {
		init = c.stmt(x.Init)
	}
	var cond, post exprFn
	if x.Cond != nil {
		cond = c.expr(x.Cond)
	}
	body := c.stmt(x.Body)
	if x.Post != nil {
		post = c.expr(x.Post)
	}
	return loop(init, cond, body, post, false)
}

// loop runs a for, while or do-while loop; init, cond and post may be
// nil. Each iteration charges a step, then tests cond before the body, or
// after it when testAfter is set.
func loop(init stmtFn, cond exprFn, body stmtFn, post exprFn, testAfter bool) stmtFn {
	return func(f *frame) (ctrl, error) {
		if init != nil {
			if _, err := init(f); err != nil {
				return ctrlNone, err
			}
		}
		for {
			if err := f.step(); err != nil {
				return ctrlNone, err
			}
			if cond != nil && !testAfter {
				if ok, err := f.branch(cond); err != nil || !ok {
					return ctrlNone, err
				}
			}
			ct, err := body(f)
			if err != nil {
				return ctrlNone, err
			}
			if ct == ctrlBreak {
				return ctrlNone, nil
			}
			if ct == ctrlReturn {
				return ct, nil
			}
			if testAfter {
				if ok, err := f.branch(cond); err != nil || !ok {
					return ctrlNone, err
				}
			}
			if post != nil {
				if _, err := post(f); err != nil {
					return ctrlNone, err
				}
			}
		}
	}
}

// branch evaluates a condition and counts the branch it decides.
func (f *frame) branch(cond exprFn) (bool, error) {
	v, err := cond(f)
	if err != nil {
		return false, err
	}
	f.prof.Branches++
	return v.Bool(), nil
}

func (c *compiler) switchStmt(x *clc.SwitchStmt) stmtFn {
	tag := c.expr(x.Tag)
	values := make([]exprFn, len(x.Cases)) // nil for default
	for i, cc := range x.Cases {
		if cc.Value != nil {
			values[i] = c.expr(cc.Value)
		}
	}
	c.push()
	bodies := make([][]stmtFn, len(x.Cases))
	for i, cc := range x.Cases {
		for _, st := range cc.Body {
			bodies[i] = append(bodies[i], c.stmt(st))
		}
	}
	c.pop()
	return func(f *frame) (ctrl, error) {
		tv, err := tag(f)
		if err != nil {
			return ctrlNone, err
		}
		f.prof.Branches++
		matched, defaultIdx := -1, -1
		for i, val := range values {
			if val == nil {
				defaultIdx = i
				continue
			}
			v, err := val(f)
			if err != nil {
				return ctrlNone, err
			}
			if v.Int() == tv.Int() {
				matched = i
				break
			}
		}
		if matched < 0 {
			matched = defaultIdx
		}
		if matched < 0 {
			return ctrlNone, nil
		}
		for _, body := range bodies[matched:] { // fallthrough semantics
			for _, st := range body {
				ct, err := st(f)
				if err != nil {
					return ctrlNone, err
				}
				switch ct {
				case ctrlBreak:
					return ctrlNone, nil
				case ctrlReturn, ctrlContinue:
					return ct, nil
				}
			}
		}
		return ctrlNone, nil
	}
}

// decl compiles one variable declaration. The initializer is compiled
// before the name enters scope, so it sees any outer variable it shadows.
func (c *compiler) decl(d *clc.VarDecl) func(*frame) error {
	if at, ok := d.Type.(*clc.ArrayType); ok {
		kind, n, space := elemKind(at), int(scalarSlots(at)), d.Space
		if space == clc.Local {
			// __local arrays in function bodies are one allocation per
			// work-group, shared by all of its work-items.
			gi := c.env.nGroupLocals
			c.env.nGroupLocals++
			idx := c.declare(d.Name)
			return func(f *frame) error {
				buf := f.groupLocals[gi]
				if buf == nil {
					buf = NewBuffer(kind, n, space)
					f.groupLocals[gi] = buf
				}
				f.slots[idx] = slot{val: PtrValue(&Pointer{Buf: buf, Elem: at.Elem}), array: true}
				return nil
			}
		}
		var inits []initElem
		var xs []exprFn
		if il, ok := d.Init.(*clc.InitList); ok {
			inits = flattenInit(il, 0, nil)
			for _, e := range inits {
				xs = append(xs, c.expr(e.x))
			}
		}
		idx := c.declare(d.Name)
		return func(f *frame) error {
			buf := NewBuffer(kind, n, space)
			for i, e := range inits {
				v, err := xs[i](f)
				if err != nil {
					return err
				}
				s := ConvertScalar(v, buf.Kind)
				if err := buf.storeScalar(e.pos, s.i, s.f); err != nil {
					return err
				}
			}
			f.slots[idx] = slot{val: PtrValue(&Pointer{Buf: buf, Elem: at.Elem}), array: true}
			return nil
		}
	}
	zero := ZeroValue(d.Type)
	var init exprFn
	if d.Init != nil {
		init = c.expr(d.Init)
	}
	idx := c.declare(d.Name)
	return func(f *frame) error {
		v := zero
		if init != nil {
			iv, err := init(f)
			if err != nil {
				return err
			}
			if v = iv; !iv.IsPointer() {
				if v, err = Convert(iv, d.Type); err != nil {
					return fmt.Errorf("interp: initializing %q: %w", d.Name, err)
				}
			}
		}
		f.slots[idx] = slot{val: v}
		return nil
	}
}

// location is an assignable target: a variable's slot, or a span of a
// buffer read and written as typ.
type location struct {
	slot  *slot
	buf   *Buffer
	off   int64
	typ   clc.Type
	lanes []int // swizzle lanes when assigning through a vector member
}

func (f *frame) readLoc(loc *location) (Value, error) {
	var base Value
	switch {
	case loc.slot != nil:
		base = loc.slot.val
	case loc.buf != nil:
		v, err := f.loadCounted(loc.buf, loc.off, loc.typ)
		if err != nil {
			return Value{}, err
		}
		base = v
	default:
		return Value{}, fmt.Errorf("interp: reading invalid location")
	}
	if loc.lanes == nil {
		return base, nil
	}
	return extractLanes(base, loc.lanes), nil
}

func (f *frame) writeLoc(loc *location, v Value) error {
	if loc.lanes != nil {
		// Read-modify-write through the swizzle.
		var base Value
		switch {
		case loc.slot != nil:
			base = loc.slot.val
		case loc.buf != nil:
			b, err := load(loc.buf, loc.off, loc.typ)
			if err != nil {
				return err
			}
			base = b
		}
		merged := insertLanes(base, loc.lanes, v)
		if loc.slot != nil {
			loc.slot.val = merged
			return nil
		}
		f.countMem(loc.buf.Space, len(loc.lanes), true)
		return store(loc.buf, loc.off, merged, loc.typ)
	}
	switch {
	case loc.slot != nil:
		if v.IsPointer() {
			loc.slot.val = v
			return nil
		}
		conv, err := Convert(v, loc.typ)
		if err != nil {
			return err
		}
		loc.slot.val = conv
		return nil
	case loc.buf != nil:
		f.countMem(loc.buf.Space, widthOfType(loc.typ), true)
		return store(loc.buf, loc.off, v, loc.typ)
	}
	return fmt.Errorf("interp: writing invalid location")
}

func widthOfType(t clc.Type) int {
	if vt, ok := t.(*clc.VectorType); ok {
		return vt.Len
	}
	return 1
}

func extractLanes(v Value, lanes []int) Value {
	if len(lanes) == 1 {
		return v.Lane(lanes[0])
	}
	out := newValue(v.Kind, len(lanes))
	for i, l := range lanes {
		out.set(i, v.li(l), v.lf(l))
	}
	return out
}

func insertLanes(base Value, lanes []int, v Value) Value {
	out := base
	if base.vec != nil {
		cp := *base.vec
		out.vec = &cp
	} else {
		for _, l := range lanes {
			if l > 0 {
				// A lane past a scalar's first: give it lane storage.
				out.vec = &vecLanes{}
				out.vec.i[0], out.vec.f[0] = base.i, base.f
				break
			}
		}
	}
	for i, l := range lanes {
		var s Value
		if v.Width <= 1 {
			s = ConvertScalar(v, base.Kind)
		} else {
			s = ConvertScalar(v.Lane(i), base.Kind)
		}
		out.set(l, s.i, s.f)
	}
	return out
}

// singleLanes holds the lane list of every one-lane vector element
// assignment v[i] = x.
var singleLanes = func() (ls [MaxLanes][]int) {
	for i := range ls {
		ls[i] = []int{i}
	}
	return
}()

// lvalue compiles an assignable expression to its location. Resolving a
// location charges no step; the expressions it evaluates charge theirs.
func (c *compiler) lvalue(e clc.Expr) lvalFn {
	switch x := e.(type) {
	case *clc.Ident:
		idx, ok := c.lookup(x.Name)
		if !ok {
			err := fmt.Errorf("interp: assignment to unknown identifier %q", x.Name)
			return func(f *frame) (location, error) { return location{}, err }
		}
		// The checker types every identifier it accepts.
		typ := x.ExprType()
		return func(f *frame) (location, error) {
			s := &f.slots[idx]
			if s.array {
				return location{}, fmt.Errorf("interp: cannot assign to array %q", x.Name)
			}
			return location{slot: s, typ: typ}, nil
		}
	case *clc.IndexExpr:
		base, index, baseLoc := c.expr(x.X), c.expr(x.Index), c.lvalue(x.X)
		return func(f *frame) (location, error) {
			bv, err := base(f)
			if err != nil {
				return location{}, err
			}
			iv, err := index(f)
			if err != nil {
				return location{}, err
			}
			if bv.IsPointer() {
				p := bv.Ptr
				off := p.Off + iv.Int()*scalarSlots(p.Elem)
				if at, ok := p.Elem.(*clc.ArrayType); ok {
					return location{}, fmt.Errorf("interp: cannot assign to array value %s", at)
				}
				return location{buf: p.Buf, off: off, typ: p.Elem}, nil
			}
			// Vector lane assignment v[i] — uncommon but legal in some dialects.
			if bv.Width > 1 {
				loc, err := baseLoc(f)
				if err != nil {
					return location{}, err
				}
				lane := int(iv.Int())
				if lane < 0 || lane >= bv.Width {
					return location{}, fmt.Errorf("interp: vector lane %d out of range", lane)
				}
				loc.lanes = singleLanes[lane]
				return loc, nil
			}
			return location{}, fmt.Errorf("interp: cannot index non-pointer value")
		}
	case *clc.MemberExpr:
		baseT := x.X.ExprType()
		vt, ok := baseT.(*clc.VectorType)
		if !ok {
			err := fmt.Errorf("interp: unsupported member assignment on %v", baseT)
			return func(f *frame) (location, error) { return location{}, err }
		}
		lanes, lerr := clc.VectorComponents(x.Member, vt.Len)
		baseLoc := c.lvalue(x.X)
		return func(f *frame) (location, error) {
			if lerr != nil {
				return location{}, lerr
			}
			loc, err := baseLoc(f)
			if err != nil {
				return location{}, err
			}
			if loc.lanes != nil {
				return location{}, fmt.Errorf("interp: nested swizzle assignment unsupported")
			}
			loc.lanes = lanes
			return loc, nil
		}
	case *clc.UnaryExpr:
		if x.Op == clc.MUL {
			ptr := c.expr(x.X)
			return func(f *frame) (location, error) {
				v, err := ptr(f)
				if err != nil {
					return location{}, err
				}
				if !v.IsPointer() {
					return location{}, fmt.Errorf("interp: dereferencing non-pointer")
				}
				return location{buf: v.Ptr.Buf, off: v.Ptr.Off, typ: v.Ptr.Elem}, nil
			}
		}
	}
	err := fmt.Errorf("interp: expression %T is not assignable", e)
	return func(f *frame) (location, error) { return location{}, err }
}

// indexPointer advances p by idx elements of its pointee type. When the
// pointee is an (inner) array, the result is a pointer to that array's
// element type — C array decay.
func indexPointer(p *Pointer, idx int64) (*Pointer, clc.Type) {
	elemT := p.Elem
	off := p.Off + idx*scalarSlots(elemT)
	if at, ok := elemT.(*clc.ArrayType); ok {
		return &Pointer{Buf: p.Buf, Off: off, Elem: at.Elem}, at
	}
	return &Pointer{Buf: p.Buf, Off: off, Elem: elemT}, elemT
}

// constant compiles an expression whose value is fixed at compile time.
func constant(v Value) exprFn {
	return func(f *frame) (Value, error) {
		if err := f.step(); err != nil {
			return Value{}, err
		}
		return v, nil
	}
}

// failing compiles an expression that always fails when evaluated.
func failing(err error) exprFn {
	return func(f *frame) (Value, error) {
		if err := f.step(); err != nil {
			return Value{}, err
		}
		return Value{}, err
	}
}

func (c *compiler) exprs(es []clc.Expr) []exprFn {
	out := make([]exprFn, len(es))
	for i, e := range es {
		out[i] = c.expr(e)
	}
	return out
}

func (c *compiler) expr(e clc.Expr) exprFn {
	switch x := e.(type) {
	case *clc.IntLit:
		kind := clc.Int
		if st, ok := x.ExprType().(*clc.ScalarType); ok {
			kind = st.Kind
		}
		return constant(IntValue(kind, x.Value))
	case *clc.FloatLit:
		kind := clc.Double
		if st, ok := x.ExprType().(*clc.ScalarType); ok {
			kind = st.Kind
		}
		return constant(FloatValue(kind, x.Value))
	case *clc.CharLit:
		return constant(IntValue(clc.Char, x.Value))
	case *clc.StringLit:
		return constant(Value{})
	case *clc.Ident:
		return c.ident(x)
	case *clc.BinaryExpr:
		return c.binary(x)
	case *clc.AssignExpr:
		return c.assign(x)
	case *clc.UnaryExpr:
		return c.unary(x)
	case *clc.PostfixExpr:
		return c.incDec(x.X, x.Op, true)
	case *clc.CondExpr:
		cond, a, b := c.expr(x.Cond), c.expr(x.A), c.expr(x.B)
		return func(f *frame) (Value, error) {
			if err := f.step(); err != nil {
				return Value{}, err
			}
			ok, err := f.branch(cond)
			if err != nil {
				return Value{}, err
			}
			if ok {
				return a(f)
			}
			return b(f)
		}
	case *clc.CallExpr:
		if fn, ok := c.env.funcs[x.Fun]; ok {
			return call(c.exprs(x.Args), func(f *frame, argv []Value) (Value, error) { return f.call(fn, argv) })
		}
		return c.builtin(x)
	case *clc.IndexExpr:
		return c.index(x)
	case *clc.MemberExpr:
		return c.member(x)
	case *clc.CastExpr:
		return c.cast(x)
	case *clc.SizeofExpr:
		size := int64(4)
		if x.Type != nil {
			size = int64(x.Type.Size())
		} else if t := x.X.ExprType(); t != nil {
			size = int64(t.Size())
		}
		return constant(IntValue(clc.ULong, size))
	case *clc.InitList:
		// Brace initializer in expression position: treat as vector build.
		elems := c.exprs(x.Elems)
		return func(f *frame) (Value, error) {
			if err := f.step(); err != nil {
				return Value{}, err
			}
			var lanes []Value
			for _, el := range elems {
				v, err := el(f)
				if err != nil {
					return Value{}, err
				}
				lanes = append(lanes, v)
			}
			if len(lanes) == 1 {
				return lanes[0], nil
			}
			kind := clc.Float
			if len(lanes) > 0 {
				kind = lanes[0].Kind
			}
			return VecValue(kind, lanes), nil
		}
	case *clc.ArgPack:
		if len(x.Args) == 1 {
			return unaryExpr(c.expr(x.Args[0]), pass)
		}
		return failing(fmt.Errorf("interp: stray argument pack"))
	}
	return failing(fmt.Errorf("interp: unsupported expression %T", e))
}

// ident resolves a name in order: local variable, file-scope array,
// file-scope constant, predeclared constant.
func (c *compiler) ident(x *clc.Ident) exprFn {
	if idx, ok := c.lookup(x.Name); ok {
		return func(f *frame) (Value, error) {
			if err := f.step(); err != nil {
				return Value{}, err
			}
			return f.slots[idx].val, nil
		}
	}
	if buf, ok := c.env.consts[x.Name]; ok {
		var elem clc.Type = clc.TypeInt
		for _, d := range c.env.File.Decls {
			if vd, ok := d.(*clc.VarDecl); ok && vd.Name == x.Name {
				if at, ok := vd.Type.(*clc.ArrayType); ok {
					elem = at.Elem
					break
				}
			}
		}
		return constant(PtrValue(&Pointer{Buf: buf, Elem: elem}))
	}
	if v, ok := c.env.globals[x.Name]; ok {
		return constant(v)
	}
	if fv, ok := clc.PredeclaredValue(x.Name); ok {
		if st, ok := x.ExprType().(*clc.ScalarType); ok {
			if st.Kind.IsFloat() {
				return constant(FloatValue(st.Kind, fv))
			}
			return constant(IntValue(st.Kind, int64(fv)))
		}
		return constant(FloatValue(clc.Double, fv))
	}
	return failing(fmt.Errorf("interp: unknown identifier %q", x.Name))
}

var intOne = IntValue(clc.Int, 1)

func (c *compiler) binary(x *clc.BinaryExpr) exprFn {
	a, b := c.expr(x.X), c.expr(x.Y)
	// Short-circuit evaluation.
	if x.Op == clc.LAND || x.Op == clc.LOR {
		land := x.Op == clc.LAND
		return func(f *frame) (Value, error) {
			if err := f.step(); err != nil {
				return Value{}, err
			}
			av, err := a(f)
			if err != nil {
				return Value{}, err
			}
			if land != av.Bool() {
				return IntValue(clc.Int, boolToInt(!land)), nil
			}
			bv, err := b(f)
			if err != nil {
				return Value{}, err
			}
			return IntValue(clc.Int, boolToInt(bv.Bool())), nil
		}
	}
	op := x.Op
	return func(f *frame) (Value, error) {
		if err := f.step(); err != nil {
			return Value{}, err
		}
		av, err := a(f)
		if err != nil {
			return Value{}, err
		}
		bv, err := b(f)
		if err != nil {
			return Value{}, err
		}
		out, err := binaryOp(op, av, bv)
		if err != nil {
			return Value{}, fmt.Errorf("interp: %s: %w", x.Pos, err)
		}
		if !out.IsPointer() && op != clc.COMMA {
			f.countArith(out.Kind, out.Width)
		}
		return out, nil
	}
}

var compoundOps = map[clc.TokenKind]clc.TokenKind{
	clc.ADDASSIGN: clc.ADD, clc.SUBASSIGN: clc.SUB, clc.MULASSIGN: clc.MUL,
	clc.DIVASSIGN: clc.DIV, clc.REMASSIGN: clc.REM, clc.ANDASSIGN: clc.AND,
	clc.ORASSIGN: clc.OR, clc.XORASSIGN: clc.XOR, clc.SHLASSIGN: clc.SHL,
	clc.SHRASSIGN: clc.SHR,
}

func (c *compiler) assign(x *clc.AssignExpr) exprFn {
	rhs, lv := c.expr(x.Y), c.lvalue(x.X)
	compound := x.Op != clc.ASSIGN
	op, known := compoundOps[x.Op]
	return func(f *frame) (Value, error) {
		if err := f.step(); err != nil {
			return Value{}, err
		}
		r, err := rhs(f)
		if err != nil {
			return Value{}, err
		}
		loc, err := lv(f)
		if err != nil {
			return Value{}, err
		}
		if compound {
			old, err := f.readLoc(&loc)
			if err != nil {
				return Value{}, err
			}
			if !known {
				return Value{}, fmt.Errorf("interp: unsupported compound assignment %s", x.Op)
			}
			nv, err := binaryOp(op, old, r)
			if err != nil {
				return Value{}, fmt.Errorf("interp: %s: %w", x.Pos, err)
			}
			f.countArith(old.Kind, max(old.Width, 1))
			r = nv
		}
		if err := f.writeLoc(&loc, r); err != nil {
			return Value{}, fmt.Errorf("interp: %s: %w", x.Pos, err)
		}
		return r, nil
	}
}

// incDec compiles ++ and --, prefix or postfix.
func (c *compiler) incDec(target clc.Expr, tok clc.TokenKind, postfix bool) exprFn {
	lv := c.lvalue(target)
	op := clc.ADD
	if tok == clc.DEC {
		op = clc.SUB
	}
	return func(f *frame) (Value, error) {
		if err := f.step(); err != nil {
			return Value{}, err
		}
		loc, err := lv(f)
		if err != nil {
			return Value{}, err
		}
		old, err := f.readLoc(&loc)
		if err != nil {
			return Value{}, err
		}
		nv, err := binaryOp(op, old, intOne)
		if err != nil {
			return Value{}, err
		}
		f.countArith(old.Kind, old.Width)
		if err := f.writeLoc(&loc, nv); err != nil {
			return Value{}, err
		}
		if postfix {
			return old, nil
		}
		return nv, nil
	}
}

func (c *compiler) unary(x *clc.UnaryExpr) exprFn {
	switch x.Op {
	case clc.MUL:
		return unaryExpr(c.expr(x.X), func(f *frame, v Value) (Value, error) {
			if !v.IsPointer() {
				return Value{}, fmt.Errorf("interp: dereferencing non-pointer")
			}
			return f.loadCounted(v.Ptr.Buf, v.Ptr.Off, v.Ptr.Elem)
		})
	case clc.AND:
		return unaryExpr(c.addrOf(x.X), pass)
	case clc.INC, clc.DEC:
		return c.incDec(x.X, x.Op, false)
	}
	op := x.Op
	return unaryExpr(c.expr(x.X), func(f *frame, v Value) (Value, error) {
		out, err := unaryOp(op, v)
		if err != nil {
			return Value{}, fmt.Errorf("interp: %s: %w", x.Pos, err)
		}
		f.countArith(out.Kind, out.Width)
		return out, nil
	})
}

// unaryExpr compiles an expression that charges its step, evaluates one
// operand and applies fn to it.
func unaryExpr(operand exprFn, fn func(f *frame, v Value) (Value, error)) exprFn {
	return func(f *frame) (Value, error) {
		if err := f.step(); err != nil {
			return Value{}, err
		}
		v, err := operand(f)
		if err != nil {
			return Value{}, err
		}
		return fn(f, v)
	}
}

func pass(f *frame, v Value) (Value, error) { return v, nil }

// loadCounted reads a value of type t at slot off of buf and counts the
// access.
func (f *frame) loadCounted(buf *Buffer, off int64, t clc.Type) (Value, error) {
	v, err := load(buf, off, t)
	if err != nil {
		return Value{}, err
	}
	f.countMem(buf.Space, widthOfType(t), false)
	return v, nil
}

// addrOf compiles &e. It charges no step of its own beyond the unary
// expression's.
func (c *compiler) addrOf(e clc.Expr) exprFn {
	switch x := e.(type) {
	case *clc.IndexExpr:
		base, index := c.expr(x.X), c.expr(x.Index)
		return func(f *frame) (Value, error) {
			bv, err := base(f)
			if err != nil {
				return Value{}, err
			}
			iv, err := index(f)
			if err != nil {
				return Value{}, err
			}
			if !bv.IsPointer() {
				return Value{}, fmt.Errorf("interp: & of non-memory index")
			}
			p, _ := indexPointer(bv.Ptr, iv.Int())
			return PtrValue(p), nil
		}
	case *clc.Ident:
		idx, ok := c.lookup(x.Name)
		if !ok {
			err := fmt.Errorf("interp: & of unknown identifier %q", x.Name)
			return func(f *frame) (Value, error) { return Value{}, err }
		}
		return func(f *frame) (Value, error) {
			s := &f.slots[idx]
			if !s.array {
				migrate(s)
			}
			return s.val, nil
		}
	case *clc.UnaryExpr:
		if x.Op == clc.MUL {
			return c.expr(x.X)
		}
	}
	err := fmt.Errorf("interp: unsupported address-of target %T", e)
	return func(f *frame) (Value, error) { return Value{}, err }
}

// migrate moves a scalar variable whose address is taken into a one-slot
// private buffer, so the pointer has something to reference and writes
// through it stay visible: from then on the variable reads as the
// pointer. The subset's kernels use &x almost exclusively for output
// arguments of builtins like fract/sincos.
func migrate(s *slot) {
	kind := s.val.Kind
	w := max(s.val.Width, 1)
	buf := NewBuffer(kind, w, clc.Private)
	for l := 0; l < w; l++ {
		sc := ConvertScalar(s.val.Lane(l), kind)
		_ = buf.storeScalar(int64(l), sc.i, sc.f)
	}
	var elem clc.Type = &clc.ScalarType{Kind: kind}
	if w > 1 {
		elem = &clc.VectorType{Elem: kind, Len: w}
	}
	*s = slot{val: PtrValue(&Pointer{Buf: buf, Elem: elem}), array: true}
}

func (c *compiler) index(x *clc.IndexExpr) exprFn {
	base, index := c.expr(x.X), c.expr(x.Index)
	return func(f *frame) (Value, error) {
		if err := f.step(); err != nil {
			return Value{}, err
		}
		bv, err := base(f)
		if err != nil {
			return Value{}, err
		}
		iv, err := index(f)
		if err != nil {
			return Value{}, err
		}
		if bv.IsPointer() {
			p := bv.Ptr
			if _, isArr := p.Elem.(*clc.ArrayType); isArr {
				// Inner dimension: result is a decayed pointer.
				np, _ := indexPointer(p, iv.Int())
				return PtrValue(np), nil
			}
			v, err := load(p.Buf, p.Off+iv.Int()*scalarSlots(p.Elem), p.Elem)
			if err != nil {
				return Value{}, fmt.Errorf("interp: %s: %w", x.Pos, err)
			}
			f.countMem(p.Buf.Space, widthOfType(p.Elem), false)
			return v, nil
		}
		if bv.Width > 1 {
			lane := int(iv.Int())
			if lane < 0 || lane >= bv.Width {
				return Value{}, fmt.Errorf("interp: vector lane %d out of range", lane)
			}
			return bv.Lane(lane), nil
		}
		return Value{}, fmt.Errorf("interp: %s: cannot index non-pointer", x.Pos)
	}
}

// swizzle is a member's lane list at one vector width, or why there is
// none.
type swizzle struct {
	lanes []int
	err   error
}

func (c *compiler) member(x *clc.MemberExpr) exprFn {
	var byWidth [MaxLanes + 1]swizzle
	for w := 1; w <= MaxLanes; w++ {
		lanes, err := clc.VectorComponents(x.Member, w)
		if err != nil {
			err = fmt.Errorf("interp: %s: %w", x.Pos, err)
		}
		byWidth[w] = swizzle{lanes, err}
	}
	return unaryExpr(c.expr(x.X), func(f *frame, v Value) (Value, error) {
		if v.IsPointer() && x.Arrow {
			var err error
			if v, err = f.loadCounted(v.Ptr.Buf, v.Ptr.Off, v.Ptr.Elem); err != nil {
				return Value{}, err
			}
		}
		if v.Width >= 1 && !v.IsPointer() {
			sw := byWidth[v.Width]
			if sw.err != nil {
				return Value{}, sw.err
			}
			return extractLanes(v, sw.lanes), nil
		}
		return Value{}, fmt.Errorf("interp: %s: unsupported member access", x.Pos)
	})
}

func (c *compiler) cast(x *clc.CastExpr) exprFn {
	if pack, ok := x.X.(*clc.ArgPack); ok {
		vt, isVec := x.To.(*clc.VectorType)
		if !isVec {
			return failing(fmt.Errorf("interp: argument pack cast to non-vector %s", x.To))
		}
		args := c.exprs(pack.Args)
		return func(f *frame) (Value, error) {
			if err := f.step(); err != nil {
				return Value{}, err
			}
			var buf [MaxLanes]Value
			lanes := buf[:0]
			for _, a := range args {
				v, err := a(f)
				if err != nil {
					return Value{}, err
				}
				if v.Width > 1 {
					for l := 0; l < v.Width; l++ {
						lanes = append(lanes, v.Lane(l))
					}
				} else {
					lanes = append(lanes, v)
				}
			}
			if len(lanes) == 1 {
				return Splat(lanes[0], vt.Elem, vt.Len), nil
			}
			if len(lanes) != vt.Len {
				return Value{}, fmt.Errorf("interp: vector literal arity %d for %s", len(lanes), vt)
			}
			return VecValue(vt.Elem, lanes), nil
		}
	}
	return unaryExpr(c.expr(x.X), func(f *frame, v Value) (Value, error) {
		out, err := Convert(v, x.To)
		if err != nil {
			return Value{}, fmt.Errorf("interp: %s: %w", x.Pos, err)
		}
		return out, nil
	})
}

// call compiles a call that charges its step, evaluates every argument
// and hands them to impl.
func call(args []exprFn, impl func(f *frame, argv []Value) (Value, error)) exprFn {
	return func(f *frame) (Value, error) {
		if err := f.step(); err != nil {
			return Value{}, err
		}
		base := len(f.argv)
		argv, err := f.evalArgs(args)
		if err != nil {
			return Value{}, err
		}
		v, err := impl(f, argv)
		f.argv = f.argv[:base]
		return v, err
	}
}
