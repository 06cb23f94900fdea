package interp

import (
	"fmt"
	"math"

	"clgen/internal/clc"
)

// binaryOp applies a binary operator lane-wise, following OpenCL's usual
// arithmetic conversions: operands are promoted to a common type, scalars
// splat across vector widths, and relational results are integer (0 / -1
// per lane for vectors, 0 / 1 for scalars — we use 1; only truthiness is
// observable in the subset).
func binaryOp(op clc.TokenKind, a, b Value) (Value, error) {
	// Pointer arithmetic.
	if a.Ptr != nil || b.Ptr != nil {
		return pointerOp(op, a, b)
	}
	if a.Kind == b.Kind && a.Width == 1 && b.Width == 1 && a.vec == nil && b.vec == nil &&
		op != clc.LAND && op != clc.LOR && op != clc.COMMA {
		// Two scalars of one kind: nothing to promote or widen.
		kind := a.Kind
		if isRelational(op) {
			kind = clc.Int
		}
		i, f, err := laneOp(op, a.Kind, a.i, a.f, b.i, b.f)
		return Value{Kind: kind, Width: 1, i: i, f: f}, err
	}
	kind, width := promote(a, b)
	av := widen(a, kind, width)
	bv := widen(b, kind, width)

	outKind := kind
	switch {
	case isRelational(op):
		outKind = clc.Int
	case op == clc.LAND:
		return IntValue(clc.Int, boolToInt(av.Bool() && bv.Bool())), nil
	case op == clc.LOR:
		return IntValue(clc.Int, boolToInt(av.Bool() || bv.Bool())), nil
	case op == clc.COMMA:
		return bv, nil
	}
	out := newValue(outKind, width)
	for l := 0; l < width; l++ {
		i, f, err := laneOp(op, kind, av.li(l), av.lf(l), bv.li(l), bv.lf(l))
		if err != nil {
			return Value{}, err
		}
		out.set(l, i, f)
	}
	return out, nil
}

// laneOp applies an arithmetic or relational operator to one lane of
// operands already promoted to kind, returning the result lane.
func laneOp(op clc.TokenKind, kind clc.ScalarKind, ai int64, af float64, bi int64, bf float64) (int64, float64, error) {
	if isRelational(op) {
		var res bool
		if kind.IsFloat() {
			res = compare(op, af, bf)
		} else if kind.IsUnsigned() {
			res = compare(op, uint64(ai), uint64(bi))
		} else {
			res = compare(op, ai, bi)
		}
		r := boolToInt(res)
		return r, float64(r), nil
	}
	if kind.IsFloat() {
		f, err := floatBinary(op, af, bf)
		if err != nil {
			return 0, 0, err
		}
		if kind == clc.Float || kind == clc.Half {
			f = float64(float32(f))
		}
		return int64(clampToInt64(f)), f, nil
	}
	i, err := intBinary(op, ai, bi, kind)
	if err != nil {
		return 0, 0, err
	}
	i = truncInt(kind, i)
	return i, float64(i), nil
}

func promote(a, b Value) (clc.ScalarKind, int) {
	kind := a.Kind
	if rankOf(b.Kind) > rankOf(a.Kind) {
		kind = b.Kind
	}
	width := a.Width
	if b.Width > width {
		width = b.Width
	}
	if width < 1 {
		width = 1
	}
	return kind, width
}

// rankOf mirrors clc's promotion rank for runtime kinds.
func rankOf(k clc.ScalarKind) int {
	switch k {
	case clc.Bool:
		return 0
	case clc.Char:
		return 1
	case clc.UChar:
		return 2
	case clc.Short:
		return 3
	case clc.UShort:
		return 4
	case clc.Int:
		return 5
	case clc.UInt:
		return 6
	case clc.Long:
		return 7
	case clc.ULong:
		return 8
	case clc.Half:
		return 9
	case clc.Float:
		return 10
	case clc.Double:
		return 11
	}
	return -1
}

func widen(v Value, kind clc.ScalarKind, width int) Value {
	if v.Width == width && v.Kind == kind {
		return v
	}
	if v.Width <= 1 {
		return Splat(v, kind, width)
	}
	out := newValue(kind, width)
	for l := 0; l < width && l < v.Width; l++ {
		s := ConvertScalar(v.Lane(l), kind)
		out.set(l, s.i, s.f)
	}
	return out
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func isRelational(op clc.TokenKind) bool {
	return op == clc.EQ || op == clc.NEQ || op == clc.LT || op == clc.GT || op == clc.LEQ || op == clc.GEQ
}

func compare[T int64 | uint64 | float64](op clc.TokenKind, a, b T) bool {
	switch op {
	case clc.EQ:
		return a == b
	case clc.NEQ:
		return a != b
	case clc.LT:
		return a < b
	case clc.GT:
		return a > b
	case clc.LEQ:
		return a <= b
	case clc.GEQ:
		return a >= b
	}
	return false
}

func floatBinary(op clc.TokenKind, a, b float64) (float64, error) {
	switch op {
	case clc.ADD:
		return a + b, nil
	case clc.SUB:
		return a - b, nil
	case clc.MUL:
		return a * b, nil
	case clc.DIV:
		return a / b, nil // IEEE: inf/nan allowed
	case clc.REM:
		return math.Mod(a, b), nil
	case clc.AND, clc.OR, clc.XOR, clc.SHL, clc.SHR:
		return 0, fmt.Errorf("bitwise operator %s on float operands", op)
	}
	return 0, fmt.Errorf("unsupported float operator %s", op)
}

func intBinary(op clc.TokenKind, a, b int64, kind clc.ScalarKind) (int64, error) {
	unsigned := kind.IsUnsigned()
	switch op {
	case clc.ADD:
		return a + b, nil
	case clc.SUB:
		return a - b, nil
	case clc.MUL:
		return a * b, nil
	case clc.DIV:
		if b == 0 {
			// OpenCL integer division by zero is undefined; devices do not
			// trap. Saturate to 0 so execution proceeds deterministically.
			return 0, nil
		}
		if unsigned {
			return int64(uint64(a) / uint64(b)), nil
		}
		if a == math.MinInt64 && b == -1 {
			return a, nil
		}
		return a / b, nil
	case clc.REM:
		if b == 0 {
			return 0, nil
		}
		if unsigned {
			return int64(uint64(a) % uint64(b)), nil
		}
		if a == math.MinInt64 && b == -1 {
			return 0, nil
		}
		return a % b, nil
	case clc.AND:
		return a & b, nil
	case clc.OR:
		return a | b, nil
	case clc.XOR:
		return a ^ b, nil
	case clc.SHL:
		return a << (uint64(b) & 63), nil
	case clc.SHR:
		if unsigned {
			return int64(uint64(a) >> (uint64(b) & 63)), nil
		}
		return a >> (uint64(b) & 63), nil
	}
	return 0, fmt.Errorf("unsupported integer operator %s", op)
}

func pointerOp(op clc.TokenKind, a, b Value) (Value, error) {
	switch {
	case a.Ptr != nil && b.Ptr == nil:
		n := b.Int() * scalarSlots(a.Ptr.Elem)
		switch op {
		case clc.ADD:
			return PtrValue(&Pointer{Buf: a.Ptr.Buf, Off: a.Ptr.Off + n, Elem: a.Ptr.Elem}), nil
		case clc.SUB:
			return PtrValue(&Pointer{Buf: a.Ptr.Buf, Off: a.Ptr.Off - n, Elem: a.Ptr.Elem}), nil
		case clc.EQ, clc.NEQ:
			// Comparison against NULL (integer zero).
			isNull := !b.Bool()
			eq := false
			if isNull {
				eq = false // non-nil pointer != NULL
			}
			if op == clc.EQ {
				return IntValue(clc.Int, boolToInt(eq)), nil
			}
			return IntValue(clc.Int, boolToInt(!eq)), nil
		}
	case a.Ptr == nil && b.Ptr != nil && op == clc.ADD:
		n := a.Int() * scalarSlots(b.Ptr.Elem)
		return PtrValue(&Pointer{Buf: b.Ptr.Buf, Off: b.Ptr.Off + n, Elem: b.Ptr.Elem}), nil
	case a.Ptr != nil && b.Ptr != nil:
		switch op {
		case clc.SUB:
			d := (a.Ptr.Off - b.Ptr.Off) / scalarSlots(a.Ptr.Elem)
			return IntValue(clc.Long, d), nil
		case clc.EQ:
			return IntValue(clc.Int, boolToInt(a.Ptr.Buf == b.Ptr.Buf && a.Ptr.Off == b.Ptr.Off)), nil
		case clc.NEQ:
			return IntValue(clc.Int, boolToInt(!(a.Ptr.Buf == b.Ptr.Buf && a.Ptr.Off == b.Ptr.Off))), nil
		case clc.LT, clc.GT, clc.LEQ, clc.GEQ:
			return IntValue(clc.Int, boolToInt(compare(op, a.Ptr.Off, b.Ptr.Off))), nil
		}
	}
	return Value{}, fmt.Errorf("invalid pointer operation %s", op)
}

// unaryOp applies a prefix unary operator.
func unaryOp(op clc.TokenKind, v Value) (Value, error) {
	switch op {
	case clc.ADD:
		return v, nil
	case clc.SUB:
		out := newValue(v.Kind, max(v.Width, 1))
		for l := 0; l < out.Width; l++ {
			if v.Kind.IsFloat() {
				f := -v.lf(l)
				out.set(l, int64(clampToInt64(f)), f)
			} else {
				i := truncInt(v.Kind, -v.li(l))
				out.set(l, i, float64(i))
			}
		}
		return out, nil
	case clc.NOT:
		return IntValue(clc.Int, boolToInt(!v.Bool())), nil
	case clc.BNOT:
		if v.Kind.IsFloat() {
			return Value{}, fmt.Errorf("operator ~ on float operand")
		}
		out := newValue(v.Kind, max(v.Width, 1))
		for l := 0; l < out.Width; l++ {
			i := truncInt(v.Kind, ^v.li(l))
			out.set(l, i, float64(i))
		}
		return out, nil
	}
	return Value{}, fmt.Errorf("unsupported unary operator %s", op)
}
