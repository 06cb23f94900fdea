package interp

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"clgen/internal/clc"
)

// noOffset is the global offset of every launch: launches have none.
var noOffset [3]int64

// workItemQueries maps each get_* query to the ids or sizes it reads.
var workItemQueries = map[string]func(f *frame) *[3]int64{
	"get_global_id":     func(f *frame) *[3]int64 { return &f.gid },
	"get_local_id":      func(f *frame) *[3]int64 { return &f.lid },
	"get_group_id":      func(f *frame) *[3]int64 { return &f.grp },
	"get_global_size":   func(f *frame) *[3]int64 { return &f.gsize },
	"get_local_size":    func(f *frame) *[3]int64 { return &f.lsize },
	"get_num_groups":    func(f *frame) *[3]int64 { return &f.ngrp },
	"get_global_offset": func(f *frame) *[3]int64 { return &noOffset },
}

// builtin compiles a call to an OpenCL built-in function, resolving the
// callee once. Every returned closure charges the call's own step first,
// then evaluates the arguments exactly as far as the built-in needs.
func (c *compiler) builtin(x *clc.CallExpr) exprFn {
	name := x.Fun
	args := c.exprs(x.Args)
	if ids, ok := workItemQueries[name]; ok {
		return workItemQuery(ids, args)
	}
	switch name {
	case "get_work_dim":
		return func(f *frame) (Value, error) {
			if err := f.step(); err != nil {
				return Value{}, err
			}
			dims := int64(1)
			if f.gsize[1] > 1 {
				dims = 2
			}
			if f.gsize[2] > 1 {
				dims = 3
			}
			return IntValue(clc.UInt, dims), nil
		}
	case "barrier", "work_group_barrier", "mem_fence", "read_mem_fence", "write_mem_fence",
		"printf", "prefetch", "wait_group_events":
		// The arguments are evaluated for their side effects only.
		fence := strings.Contains(name, "barrier") || strings.Contains(name, "fence")
		sync := strings.Contains(name, "barrier")
		var ret Value
		if name == "printf" {
			ret = IntValue(clc.Int, 0)
		}
		return func(f *frame) (Value, error) {
			if err := f.step(); err != nil {
				return Value{}, err
			}
			for _, a := range args {
				if _, err := a(f); err != nil {
					return Value{}, err
				}
			}
			if fence {
				f.prof.Barriers++
			}
			if sync && f.yield != nil {
				if err := f.yield(); err != nil {
					return Value{}, err
				}
			}
			return ret, nil
		}
	}
	if b := clc.LookupBuiltin(name); b != nil && b.Atomic {
		return atomic(name, args)
	}

	// Everything below evaluates all arguments first.
	var impl func(f *frame, argv []Value) (Value, error)
	if t, ok := clc.ConversionTarget(name); ok {
		bits := strings.HasPrefix(name, "as_")
		impl = func(f *frame, argv []Value) (Value, error) {
			if len(argv) != 1 {
				return Value{}, fmt.Errorf("interp: %s takes 1 argument", name)
			}
			if bits {
				return bitReinterpret(argv[0], t)
			}
			return Convert(argv[0], t)
		}
	} else if n, ok := clc.VectorWidthOfName(name); ok {
		if strings.HasPrefix(name, "vload") {
			impl = func(f *frame, argv []Value) (Value, error) { return f.vload(n, argv) }
		} else {
			impl = func(f *frame, argv []Value) (Value, error) { return Value{}, f.vstore(n, argv) }
		}
	} else if name == "async_work_group_copy" || name == "async_work_group_strided_copy" {
		// async copies: perform synchronously.
		impl = func(f *frame, argv []Value) (Value, error) { return f.asyncCopy(name, argv) }
	} else if fn, ok := mathBuiltins[name]; ok {
		impl = func(f *frame, argv []Value) (Value, error) {
			v, err := fn(f, argv)
			if err != nil {
				return Value{}, fmt.Errorf("interp: %s: %w", name, err)
			}
			f.countArith(v.Kind, max(v.Width, 1))
			return v, nil
		}
	} else {
		impl = func(f *frame, argv []Value) (Value, error) {
			return Value{}, fmt.Errorf("interp: unimplemented builtin %q", name)
		}
	}
	return call(args, impl)
}

// workItemQuery compiles get_global_id and its relatives. The dimension
// argument is evaluated (and charged) like any other expression.
func workItemQuery(ids func(f *frame) *[3]int64, args []exprFn) exprFn {
	return func(f *frame) (Value, error) {
		if err := f.step(); err != nil {
			return Value{}, err
		}
		dim := 0
		if len(args) > 0 {
			v, err := args[0](f)
			if err != nil {
				return Value{}, err
			}
			dim = int(v.Int())
		}
		if dim < 0 || dim > 2 {
			return IntValue(clc.ULong, 0), nil
		}
		return IntValue(clc.ULong, ids(f)[dim]), nil
	}
}

// atomicOps maps an atomic built-in's base name to its update of the old
// value; cmpxchg, which takes a third operand, is handled apart.
var atomicOps = map[string]func(old, operand int64) int64{
	"add":  func(old, x int64) int64 { return old + x },
	"sub":  func(old, x int64) int64 { return old - x },
	"inc":  func(old, x int64) int64 { return old + 1 },
	"dec":  func(old, x int64) int64 { return old - 1 },
	"xchg": func(old, x int64) int64 { return x },
	"min":  func(old, x int64) int64 { return min(old, x) },
	"max":  func(old, x int64) int64 { return max(old, x) },
	"and":  func(old, x int64) int64 { return old & x },
	"or":   func(old, x int64) int64 { return old | x },
	"xor":  func(old, x int64) int64 { return old ^ x },
}

// atomic compiles an atomic_*/atom_* call. The pointer is evaluated and
// read before the operands, as the checked kernels expect.
func atomic(name string, args []exprFn) exprFn {
	base := strings.TrimPrefix(strings.TrimPrefix(name, "atomic_"), "atom_")
	update := atomicOps[base]
	cmpxchg := base == "cmpxchg"
	return func(f *frame) (Value, error) {
		if err := f.step(); err != nil {
			return Value{}, err
		}
		if len(args) == 0 {
			return Value{}, fmt.Errorf("interp: %s needs a pointer argument", name)
		}
		pv, err := args[0](f)
		if err != nil {
			return Value{}, err
		}
		if !pv.IsPointer() {
			return Value{}, fmt.Errorf("interp: %s on non-pointer", name)
		}
		p := pv.Ptr
		old, _, err := p.Buf.loadScalar(p.Off)
		if err != nil {
			return Value{}, err
		}
		f.prof.Atomics++
		var operand int64
		if len(args) > 1 {
			v, err := args[1](f)
			if err != nil {
				return Value{}, err
			}
			operand = v.Int()
		}
		nv := old
		switch {
		case update != nil:
			nv = update(old, operand)
		case cmpxchg:
			var val int64
			if len(args) > 2 {
				v, err := args[2](f)
				if err != nil {
					return Value{}, err
				}
				val = v.Int()
			}
			if old == operand {
				nv = val
			}
		default:
			return Value{}, fmt.Errorf("interp: unknown atomic %q", name)
		}
		if err := p.Buf.storeScalar(p.Off, nv, float64(nv)); err != nil {
			return Value{}, err
		}
		kind := clc.Int
		if st, ok := p.Elem.(*clc.ScalarType); ok {
			kind = st.Kind
		}
		return IntValue(kind, old), nil
	}
}

func (f *frame) vload(n int, args []Value) (Value, error) {
	if len(args) != 2 || !args[1].IsPointer() {
		return Value{}, fmt.Errorf("interp: vload%d(offset, pointer)", n)
	}
	p := args[1].Ptr
	off := args[0].Int() * int64(n)
	kind := elemKind(p.Elem)
	out := newValue(kind, n)
	for l := 0; l < n; l++ {
		i, fl, err := p.Buf.loadScalar(p.Off + off + int64(l))
		if err != nil {
			return Value{}, err
		}
		cs := ConvertScalar(Value{Kind: p.Buf.Kind, Width: 1, i: i, f: fl}, kind)
		out.set(l, cs.i, cs.f)
	}
	f.countMem(p.Buf.Space, n, false)
	return out, nil
}

func (f *frame) vstore(n int, args []Value) error {
	if len(args) != 3 || !args[2].IsPointer() {
		return fmt.Errorf("interp: vstore%d(value, offset, pointer)", n)
	}
	p := args[2].Ptr
	off := args[1].Int() * int64(n)
	v := args[0]
	for l := 0; l < n; l++ {
		lane := v
		if v.Width > 1 {
			lane = v.Lane(l % v.Width)
		}
		cb := ConvertScalar(lane, p.Buf.Kind)
		if err := p.Buf.storeScalar(p.Off+off+int64(l), cb.i, cb.f); err != nil {
			return err
		}
	}
	f.countMem(p.Buf.Space, n, true)
	return nil
}

func (f *frame) asyncCopy(name string, args []Value) (Value, error) {
	if len(args) < 3 || !args[0].IsPointer() || !args[1].IsPointer() {
		return Value{}, fmt.Errorf("interp: %s(dst, src, n, ...)", name)
	}
	dst, src := args[0].Ptr, args[1].Ptr
	n := args[2].Int() * scalarSlots(dst.Elem)
	stride := int64(1)
	if name == "async_work_group_strided_copy" && len(args) > 3 {
		stride = args[3].Int()
		if stride < 1 {
			stride = 1
		}
	}
	for i := int64(0); i < n; i++ {
		iv, fv, err := src.Buf.loadScalar(src.Off + i*stride)
		if err != nil {
			return Value{}, err
		}
		if err := dst.Buf.storeScalar(dst.Off+i, iv, fv); err != nil {
			return Value{}, err
		}
	}
	f.countMem(src.Buf.Space, int(n), false)
	f.countMem(dst.Buf.Space, int(n), true)
	return IntValue(clc.ULong, 0), nil
}

// bitReinterpret implements as_T for scalar float/int pairs bit-exactly and
// falls back to numeric conversion elsewhere.
func bitReinterpret(v Value, t clc.Type) (Value, error) {
	st, isScalar := t.(*clc.ScalarType)
	if isScalar && v.Width <= 1 {
		switch {
		case st.Kind == clc.Float && !v.Kind.IsFloat():
			return FloatValue(clc.Float, float64(math.Float32frombits(uint32(v.li(0))))), nil
		case st.Kind.IsInteger() && (v.Kind == clc.Float || v.Kind == clc.Half):
			return IntValue(st.Kind, int64(math.Float32bits(float32(v.lf(0))))), nil
		case st.Kind == clc.Double && !v.Kind.IsFloat():
			return FloatValue(clc.Double, math.Float64frombits(uint64(v.li(0)))), nil
		case st.Kind.IsInteger() && v.Kind == clc.Double:
			return IntValue(st.Kind, int64(math.Float64bits(v.lf(0)))), nil
		}
	}
	return Convert(v, t)
}

// mathFn implements one math-family builtin over evaluated arguments.
type mathFn func(f *frame, args []Value) (Value, error)

// fixed wraps a built-in that takes exactly n arguments.
func fixed(n int, fn func(a []Value) (Value, error)) mathFn {
	return func(f *frame, args []Value) (Value, error) {
		if len(args) != n {
			if n == 1 {
				return Value{}, fmt.Errorf("want 1 argument")
			}
			return Value{}, fmt.Errorf("want %d arguments", n)
		}
		return fn(args)
	}
}

// laneUnary lifts a float function lane-wise.
func laneUnary(fn func(float64) float64) mathFn {
	return fixed(1, func(a []Value) (Value, error) { return mapLanes1(a[0], fn), nil })
}

func laneBinary(fn func(a, b float64) float64) mathFn {
	return fixed(2, func(a []Value) (Value, error) { return mapLanes2(a[0], a[1], fn), nil })
}

func laneTernary(fn func(a, b, x float64) float64) mathFn {
	return fixed(3, func(a []Value) (Value, error) { return mapLanes3(a[0], a[1], a[2], fn), nil })
}

// setFloatLane stores a float result in lane l, rounded to single
// precision for float.
func (v *Value) setFloatLane(l int, r float64) {
	if v.Kind == clc.Float {
		r = float64(float32(r))
	}
	v.set(l, int64(clampToInt64(r)), r)
}

func mapLanes1(v Value, fn func(float64) float64) Value {
	w := max(v.Width, 1)
	out := newValue(floatKindFor(v.Kind), w)
	for l := 0; l < w; l++ {
		out.setFloatLane(l, fn(v.Lane(l).Float()))
	}
	return out
}

func mapLanes2(a, b Value, fn func(x, y float64) float64) Value {
	kind, w := promote(a, b)
	kind = floatKindFor(kind)
	av, bv := widen(a, kind, w), widen(b, kind, w)
	out := newValue(kind, w)
	for l := 0; l < w; l++ {
		out.setFloatLane(l, fn(av.lf(l), bv.lf(l)))
	}
	return out
}

func mapLanes3(a, b, x Value, fn func(p, q, r float64) float64) Value {
	kind, w := promote(a, b)
	kind, w = promote(x, Value{Kind: kind, Width: w})
	kind = floatKindFor(kind)
	av, bv, xv := widen(a, kind, w), widen(b, kind, w), widen(x, kind, w)
	out := newValue(kind, w)
	for l := 0; l < w; l++ {
		out.setFloatLane(l, fn(av.lf(l), bv.lf(l), xv.lf(l)))
	}
	return out
}

// floatKindFor maps integer kinds to float for math functions that always
// produce floating-point results.
func floatKindFor(k clc.ScalarKind) clc.ScalarKind {
	if k.IsFloat() {
		return k
	}
	return clc.Float
}

// intLaneBinary applies an integer function lane-wise at the promoted
// kind (used by the integer built-ins).
func intLaneBinary(fn func(a, b int64) int64) func(a, b Value) Value {
	return func(a, b Value) Value {
		kind, w := promote(a, b)
		av, bv := widen(a, kind, w), widen(b, kind, w)
		out := newValue(kind, w)
		for l := 0; l < w; l++ {
			i := truncInt(kind, fn(av.li(l), bv.li(l)))
			out.set(l, i, float64(i))
		}
		return out
	}
}

// minMax is the integer-aware min (isMax false) or max of two values.
func minMax(a, b Value, isMax bool) Value {
	kind, w := promote(a, b)
	av, bv := widen(a, kind, w), widen(b, kind, w)
	out := newValue(kind, w)
	for l := 0; l < w; l++ {
		ai, bi, af, bf := av.li(l), bv.li(l), av.lf(l), bv.lf(l)
		var takeB bool
		if kind.IsFloat() {
			takeB = bf > af == isMax && bf != af
		} else if kind.IsUnsigned() {
			takeB = (uint64(bi) > uint64(ai)) == isMax && bi != ai
		} else {
			takeB = (bi > ai) == isMax && bi != ai
		}
		if takeB {
			out.set(l, bi, bf)
		} else {
			out.set(l, ai, af)
		}
	}
	return out
}

// length is the Euclidean length of a vector (or |x| of a scalar).
func length(v Value) Value {
	var s float64
	for l := 0; l < max(v.Width, 1); l++ {
		x := v.Lane(l).Float()
		s += x * x
	}
	return FloatValue(floatKindFor(v.Kind), math.Sqrt(s))
}

var (
	mul24 = intLaneBinary(func(a, b int64) int64 { return (a & 0xFFFFFF) * (b & 0xFFFFFF) })
	mulHi = intLaneBinary(func(a, b int64) int64 {
		hi, _ := bits.Mul64(uint64(a), uint64(b))
		return int64(hi)
	})
)

var mathBuiltins map[string]mathFn

func init() {
	mathBuiltins = map[string]mathFn{
		"sqrt":    laneUnary(math.Sqrt),
		"rsqrt":   laneUnary(func(x float64) float64 { return 1 / math.Sqrt(x) }),
		"cbrt":    laneUnary(math.Cbrt),
		"sin":     laneUnary(math.Sin),
		"cos":     laneUnary(math.Cos),
		"tan":     laneUnary(math.Tan),
		"asin":    laneUnary(math.Asin),
		"acos":    laneUnary(math.Acos),
		"atan":    laneUnary(math.Atan),
		"sinh":    laneUnary(math.Sinh),
		"cosh":    laneUnary(math.Cosh),
		"tanh":    laneUnary(math.Tanh),
		"asinh":   laneUnary(math.Asinh),
		"acosh":   laneUnary(math.Acosh),
		"atanh":   laneUnary(math.Atanh),
		"exp":     laneUnary(math.Exp),
		"exp2":    laneUnary(math.Exp2),
		"exp10":   laneUnary(func(x float64) float64 { return math.Pow(10, x) }),
		"expm1":   laneUnary(math.Expm1),
		"log":     laneUnary(math.Log),
		"log2":    laneUnary(math.Log2),
		"log10":   laneUnary(math.Log10),
		"log1p":   laneUnary(math.Log1p),
		"fabs":    laneUnary(math.Abs),
		"floor":   laneUnary(math.Floor),
		"ceil":    laneUnary(math.Ceil),
		"round":   laneUnary(math.Round),
		"trunc":   laneUnary(math.Trunc),
		"rint":    laneUnary(math.RoundToEven),
		"erf":     laneUnary(math.Erf),
		"erfc":    laneUnary(math.Erfc),
		"tgamma":  laneUnary(math.Gamma),
		"lgamma":  laneUnary(func(x float64) float64 { l, _ := math.Lgamma(x); return l }),
		"sign":    laneUnary(func(x float64) float64 { return signOf(x) }),
		"degrees": laneUnary(func(x float64) float64 { return x * 180 / math.Pi }),
		"radians": laneUnary(func(x float64) float64 { return x * math.Pi / 180 }),
		"sinpi":   laneUnary(func(x float64) float64 { return math.Sin(math.Pi * x) }),
		"cospi":   laneUnary(func(x float64) float64 { return math.Cos(math.Pi * x) }),
		"tanpi":   laneUnary(func(x float64) float64 { return math.Tan(math.Pi * x) }),

		"atan2":     laneBinary(math.Atan2),
		"pow":       laneBinary(math.Pow),
		"powr":      laneBinary(math.Pow),
		"fmod":      laneBinary(math.Mod),
		"remainder": laneBinary(math.Remainder),
		"fdim":      laneBinary(math.Dim),
		"copysign":  laneBinary(math.Copysign),
		"hypot":     laneBinary(math.Hypot),
		"nextafter": laneBinary(math.Nextafter),
		"maxmag": laneBinary(func(a, b float64) float64 {
			if math.Abs(a) >= math.Abs(b) {
				return a
			}
			return b
		}),
		"minmag": laneBinary(func(a, b float64) float64 {
			if math.Abs(a) <= math.Abs(b) {
				return a
			}
			return b
		}),
		"step": laneBinary(func(edge, x float64) float64 {
			if x < edge {
				return 0
			}
			return 1
		}),
		"ldexp": laneBinary(func(x, e float64) float64 { return math.Ldexp(x, int(e)) }),
		"pown":  laneBinary(math.Pow),
		"rootn": laneBinary(func(x, n float64) float64 { return math.Pow(x, 1/n) }),

		"mad": laneTernary(func(a, b, cc float64) float64 { return a*b + cc }),
		"fma": laneTernary(math.FMA),
		"mix": laneTernary(func(a, b, t float64) float64 { return a + (b-a)*t }),
		"smoothstep": laneTernary(func(e0, e1, x float64) float64 {
			t := (x - e0) / (e1 - e0)
			if t < 0 {
				t = 0
			}
			if t > 1 {
				t = 1
			}
			return t * t * (3 - 2*t)
		}),
		"nan": laneUnary(func(x float64) float64 { return math.NaN() }),
	}

	// Integer-aware min/max/clamp/abs.
	mathBuiltins["min"] = genMinMax(false)
	mathBuiltins["max"] = genMinMax(true)
	mathBuiltins["fmin"] = laneBinary(math.Min)
	mathBuiltins["fmax"] = laneBinary(math.Max)
	mathBuiltins["clamp"] = fixed(3, func(a []Value) (Value, error) {
		return minMax(minMax(a[0], a[1], true), a[2], false), nil
	})
	mathBuiltins["abs"] = fixed(1, func(a []Value) (Value, error) {
		v := a[0]
		if v.Kind.IsFloat() {
			return mapLanes1(v, math.Abs), nil
		}
		w := max(v.Width, 1)
		out := newValue(v.Kind, w)
		for l := 0; l < w; l++ {
			a := v.li(l)
			if a < 0 {
				a = -a
			}
			out.set(l, a, float64(a))
		}
		return out, nil
	})
	mathBuiltins["abs_diff"] = wrapIntBinary(func(a, b int64) int64 {
		if a > b {
			return a - b
		}
		return b - a
	})
	mathBuiltins["add_sat"] = wrapIntBinary(func(a, b int64) int64 { return a + b })
	mathBuiltins["sub_sat"] = wrapIntBinary(func(a, b int64) int64 { return a - b })
	mathBuiltins["hadd"] = wrapIntBinary(func(a, b int64) int64 { return (a + b) >> 1 })
	mathBuiltins["rhadd"] = wrapIntBinary(func(a, b int64) int64 { return (a + b + 1) >> 1 })
	mathBuiltins["mul24"] = wrapBinary(mul24)
	mathBuiltins["mul_hi"] = wrapBinary(mulHi)
	mathBuiltins["rotate"] = wrapIntBinary(func(a, b int64) int64 {
		return int64(bits.RotateLeft32(uint32(a), int(b)))
	})
	mathBuiltins["upsample"] = wrapIntBinary(func(a, b int64) int64 { return a<<16 | (b & 0xFFFF) })
	madWith := func(mul func(a, b Value) Value) mathFn {
		return fixed(3, func(a []Value) (Value, error) { return binaryOp(clc.ADD, mul(a[0], a[1]), a[2]) })
	}
	mathBuiltins["mad24"] = madWith(mul24)
	mathBuiltins["mad_hi"] = madWith(mulHi)
	mathBuiltins["mad_sat"] = fixed(3, func(a []Value) (Value, error) {
		m, err := binaryOp(clc.MUL, a[0], a[1])
		if err != nil {
			return Value{}, err
		}
		return binaryOp(clc.ADD, m, a[2])
	})
	mathBuiltins["popcount"] = wrapIntUnary(func(a int64) int64 { return int64(bits.OnesCount64(uint64(a))) })
	mathBuiltins["clz"] = wrapIntUnary(func(a int64) int64 { return int64(bits.LeadingZeros32(uint32(a))) })
	mathBuiltins["ctz"] = wrapIntUnary(func(a int64) int64 { return int64(bits.TrailingZeros32(uint32(a))) })

	// Geometric.
	mathBuiltins["dot"] = fixed(2, func(args []Value) (Value, error) {
		a, b := args[0], args[1]
		var s float64
		for l := 0; l < max(a.Width, 1); l++ {
			s += a.Lane(l).Float() * b.Lane(l%max(b.Width, 1)).Float()
		}
		return FloatValue(floatKindFor(a.Kind), s), nil
	})
	mathBuiltins["length"] = fixed(1, func(a []Value) (Value, error) { return length(a[0]), nil })
	mathBuiltins["fast_length"] = mathBuiltins["length"]
	mathBuiltins["distance"] = fixed(2, func(a []Value) (Value, error) {
		d, err := binaryOp(clc.SUB, a[0], a[1])
		if err != nil {
			return Value{}, err
		}
		return length(d), nil
	})
	mathBuiltins["fast_distance"] = mathBuiltins["distance"]
	mathBuiltins["normalize"] = fixed(1, func(a []Value) (Value, error) {
		l := length(a[0])
		if l.Float() == 0 {
			return a[0], nil
		}
		return binaryOp(clc.DIV, a[0], l)
	})
	mathBuiltins["fast_normalize"] = mathBuiltins["normalize"]
	mathBuiltins["cross"] = fixed(2, func(args []Value) (Value, error) {
		a, b := args[0], args[1]
		out := newValue(floatKindFor(a.Kind), max(a.Width, 3))
		ax, ay, az := a.Lane(0).Float(), a.Lane(1%max(a.Width, 1)).Float(), a.Lane(2%max(a.Width, 1)).Float()
		bx, by, bz := b.Lane(0).Float(), b.Lane(1%max(b.Width, 1)).Float(), b.Lane(2%max(b.Width, 1)).Float()
		// Only the float lanes are written; the integer lanes stay zero.
		out.vec.f[0] = ay*bz - az*by
		out.vec.f[1] = az*bx - ax*bz
		out.vec.f[2] = ax*by - ay*bx
		return out, nil
	})

	// Relational.
	mathBuiltins["isnan"] = boolLaneUnary(math.IsNaN)
	mathBuiltins["isinf"] = boolLaneUnary(func(x float64) bool { return math.IsInf(x, 0) })
	mathBuiltins["isfinite"] = boolLaneUnary(func(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) })
	mathBuiltins["isnormal"] = boolLaneUnary(func(x float64) bool { return x != 0 && !math.IsInf(x, 0) && !math.IsNaN(x) })
	mathBuiltins["signbit"] = boolLaneUnary(func(x float64) bool { return math.Signbit(x) })
	cmp2 := func(fn func(a, b float64) bool) mathFn {
		return fixed(2, func(args []Value) (Value, error) {
			kind, w := promote(args[0], args[1])
			av, bv := widen(args[0], kind, w), widen(args[1], kind, w)
			out := newValue(clc.Int, w)
			for l := 0; l < w; l++ {
				r := boolToInt(fn(av.Lane(l).Float(), bv.Lane(l).Float()))
				out.set(l, r, float64(r))
			}
			return out, nil
		})
	}
	mathBuiltins["isequal"] = cmp2(func(a, b float64) bool { return a == b })
	mathBuiltins["isnotequal"] = cmp2(func(a, b float64) bool { return a != b })
	mathBuiltins["isgreater"] = cmp2(func(a, b float64) bool { return a > b })
	mathBuiltins["isgreaterequal"] = cmp2(func(a, b float64) bool { return a >= b })
	mathBuiltins["isless"] = cmp2(func(a, b float64) bool { return a < b })
	mathBuiltins["islessequal"] = cmp2(func(a, b float64) bool { return a <= b })
	mathBuiltins["islessgreater"] = cmp2(func(a, b float64) bool { return a != b })
	mathBuiltins["isordered"] = cmp2(func(a, b float64) bool { return !math.IsNaN(a) && !math.IsNaN(b) })
	mathBuiltins["isunordered"] = cmp2(func(a, b float64) bool { return math.IsNaN(a) || math.IsNaN(b) })
	mathBuiltins["any"] = func(f *frame, args []Value) (Value, error) {
		v := args[0]
		for l := 0; l < max(v.Width, 1); l++ {
			if v.Lane(l).Bool() {
				return IntValue(clc.Int, 1), nil
			}
		}
		return IntValue(clc.Int, 0), nil
	}
	mathBuiltins["all"] = func(f *frame, args []Value) (Value, error) {
		v := args[0]
		for l := 0; l < max(v.Width, 1); l++ {
			if !v.Lane(l).Bool() {
				return IntValue(clc.Int, 0), nil
			}
		}
		return IntValue(clc.Int, 1), nil
	}
	mathBuiltins["select"] = fixed(3, func(args []Value) (Value, error) {
		a, b, sel := args[0], args[1], args[2]
		kind, w := promote(a, b)
		av, bv := widen(a, kind, w), widen(b, kind, w)
		sv := widen(sel, sel.Kind, w)
		out := newValue(kind, w)
		for l := 0; l < w; l++ {
			src := &av
			if sv.Lane(l).Bool() {
				src = &bv
			}
			out.set(l, src.li(l), src.lf(l))
		}
		return out, nil
	})
	mathBuiltins["bitselect"] = fixed(3, func(args []Value) (Value, error) {
		a, b, m := args[0], args[1], args[2]
		kind, w := promote(a, b)
		av, bv, mv := widen(a, kind, w), widen(b, kind, w), widen(m, kind, w)
		out := newValue(kind, w)
		for l := 0; l < w; l++ {
			i := (av.li(l) &^ mv.li(l)) | (bv.li(l) & mv.li(l))
			out.set(l, i, float64(i))
		}
		return out, nil
	})
	mathBuiltins["shuffle"] = fixed(2, func(args []Value) (Value, error) {
		src, mask := args[0], args[1]
		w := max(mask.Width, 1)
		out := newValue(src.Kind, w)
		for l := 0; l < w; l++ {
			idx := int(mask.li(l)) % max(src.Width, 1)
			if idx < 0 {
				idx = 0
			}
			out.set(l, src.li(idx), src.lf(idx))
		}
		return out, nil
	})
	mathBuiltins["shuffle2"] = fixed(3, func(args []Value) (Value, error) {
		a, b, mask := args[0], args[1], args[2]
		wa := max(a.Width, 1)
		w := max(mask.Width, 1)
		out := newValue(a.Kind, w)
		for l := 0; l < w; l++ {
			idx := int(mask.li(l)) % (wa * 2)
			if idx < 0 {
				idx = 0
			}
			if idx < wa {
				out.set(l, a.li(idx), a.lf(idx))
			} else {
				out.set(l, b.li(idx-wa), b.lf(idx-wa))
			}
		}
		return out, nil
	})

	// Pointer-out-parameter functions.
	mathBuiltins["fract"] = ptrOutBinary(func(x float64) (float64, float64) {
		fl := math.Floor(x)
		return x - fl, fl
	})
	mathBuiltins["modf"] = ptrOutBinary(func(x float64) (float64, float64) {
		ip, fp := math.Modf(x)
		return fp, ip
	})
	mathBuiltins["sincos"] = ptrOutBinary(func(x float64) (float64, float64) {
		s, cc := math.Sincos(x)
		return s, cc
	})
	mathBuiltins["frexp"] = ptrOutBinary(func(x float64) (float64, float64) {
		fr, e := math.Frexp(x)
		return fr, float64(e)
	})
	mathBuiltins["remquo"] = func(f *frame, args []Value) (Value, error) {
		if len(args) != 3 || !args[2].IsPointer() {
			return Value{}, fmt.Errorf("remquo(x, y, ptr)")
		}
		r := math.Remainder(args[0].Float(), args[1].Float())
		q := math.Round((args[0].Float() - r) / args[1].Float())
		p := args[2].Ptr
		if err := p.Buf.storeScalar(p.Off, int64(q), q); err != nil {
			return Value{}, err
		}
		return FloatValue(clc.Float, r), nil
	}

	// native_* / half_* aliases.
	for _, base := range []string{"sqrt", "rsqrt", "sin", "cos", "tan", "exp",
		"exp2", "log", "log2", "log10"} {
		if fn, ok := mathBuiltins[base]; ok {
			mathBuiltins["native_"+base] = fn
			mathBuiltins["half_"+base] = fn
		}
	}
	mathBuiltins["native_recip"] = laneUnary(func(x float64) float64 { return 1 / x })
	mathBuiltins["half_recip"] = mathBuiltins["native_recip"]
	mathBuiltins["native_divide"] = laneBinary(func(a, b float64) float64 { return a / b })
	mathBuiltins["half_divide"] = mathBuiltins["native_divide"]
	mathBuiltins["native_powr"] = laneBinary(math.Pow)
	mathBuiltins["half_powr"] = mathBuiltins["native_powr"]
}

func signOf(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

func genMinMax(isMax bool) mathFn {
	return fixed(2, func(a []Value) (Value, error) { return minMax(a[0], a[1], isMax), nil })
}

func wrapBinary(fn func(a, b Value) Value) mathFn {
	return fixed(2, func(a []Value) (Value, error) { return fn(a[0], a[1]), nil })
}

func wrapIntBinary(fn func(a, b int64) int64) mathFn { return wrapBinary(intLaneBinary(fn)) }

func wrapIntUnary(fn func(a int64) int64) mathFn {
	return fixed(1, func(a []Value) (Value, error) {
		v := a[0]
		w := max(v.Width, 1)
		out := newValue(v.Kind, w)
		for l := 0; l < w; l++ {
			i := truncInt(v.Kind, fn(v.li(l)))
			out.set(l, i, float64(i))
		}
		return out, nil
	})
}

func boolLaneUnary(fn func(float64) bool) mathFn {
	return fixed(1, func(a []Value) (Value, error) {
		v := a[0]
		w := max(v.Width, 1)
		out := newValue(clc.Int, w)
		for l := 0; l < w; l++ {
			r := boolToInt(fn(v.Lane(l).Float()))
			out.set(l, r, float64(r))
		}
		return out, nil
	})
}

func ptrOutBinary(fn func(x float64) (ret, out float64)) mathFn {
	return func(f *frame, args []Value) (Value, error) {
		if len(args) != 2 || !args[1].IsPointer() {
			return Value{}, fmt.Errorf("want (value, pointer)")
		}
		v := args[0]
		p := args[1].Ptr
		w := max(v.Width, 1)
		kind := floatKindFor(v.Kind)
		out := newValue(kind, w)
		for l := 0; l < w; l++ {
			r, o := fn(v.Lane(l).Float())
			out.set(l, int64(clampToInt64(r)), r)
			co := ConvertScalar(FloatValue(kind, o), p.Buf.Kind)
			if err := p.Buf.storeScalar(p.Off+int64(l), co.i, co.f); err != nil {
				return Value{}, err
			}
		}
		f.countMem(p.Buf.Space, w, true)
		return out, nil
	}
}
