package ir

// Value is anything that can appear as an instruction operand: a
// constant, a function parameter, or the result of an instruction.
type Value interface {
	// Type returns the value's IR type.
	Type() Type
}

// Const is an integer constant. Val stores the bit pattern truncated
// to the type's width; signed interpretation is up to the consumer.
type Const struct {
	Ty  IntType
	Val uint64
}

// NewConst builds a constant of type ty from a (possibly signed)
// integer, truncating it to the type's width.
func NewConst(ty IntType, v int64) *Const {
	return &Const{Ty: ty, Val: uint64(v) & ty.Mask()}
}

// Type returns the constant's integer type.
func (c *Const) Type() Type { return c.Ty }

// Signed returns the constant sign-extended to int64.
func (c *Const) Signed() int64 {
	v := c.Val & c.Ty.Mask()
	if c.Ty.Bits < 64 && v&c.Ty.SignBit() != 0 {
		v |= ^c.Ty.Mask()
	}
	return int64(v)
}

// IsZero reports whether the constant is 0.
func (c *Const) IsZero() bool { return c.Val&c.Ty.Mask() == 0 }

// IsOne reports whether the constant is 1.
func (c *Const) IsOne() bool { return c.Val&c.Ty.Mask() == 1 }

// IsAllOnes reports whether every bit of the constant is set.
func (c *Const) IsAllOnes() bool { return c.Val&c.Ty.Mask() == c.Ty.Mask() }

// Undef is an undefined value of a given type.
type Undef struct {
	Ty Type
}

// Type returns the undef's type.
func (u *Undef) Type() Type { return u.Ty }

// Poison is a poison value of a given type.
type Poison struct {
	Ty Type
}

// Type returns the poison's type.
func (p *Poison) Type() Type { return p.Ty }

// Param is a function parameter.
type Param struct {
	NameStr string
	Ty      Type
	// Noundef records the noundef attribute (parameters produced by
	// clang frontends commonly carry it; it strengthens refinement).
	Noundef bool
}

// Type returns the parameter's type.
func (p *Param) Type() Type { return p.Ty }

// GlobalRef is a reference to a named global or function symbol.
type GlobalRef struct {
	NameStr string
	ty      Type // typically ptrTy
}

// Type returns the referenced symbol's value type (a pointer).
func (g *GlobalRef) Type() Type { return g.ty }
