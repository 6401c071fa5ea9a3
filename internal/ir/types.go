// Package ir implements a faithful subset of LLVM IR sufficient for
// peephole optimization research: integer types i1..i64, pointers,
// scalar arithmetic/bitwise/compare/select/cast instructions with
// poison-generating flags (nsw, nuw, exact), stack memory
// (alloca/load/store), control flow (br, conditional br, phi), calls,
// and returns. It provides a builder, a printer that emits LLVM-like
// text, a parser for that text, and a structural verifier.
package ir

import "fmt"

// Type is the interface implemented by all IR types.
type Type interface {
	// String renders the type in LLVM syntax (e.g. "i32", "ptr").
	String() string
	// Equal reports whether two types are identical.
	Equal(Type) bool
}

// IntType is an integer type with a fixed bit width between 1 and 64.
type IntType struct {
	Bits int
}

func (t IntType) String() string { return fmt.Sprintf("i%d", t.Bits) }

// Equal reports whether o is an integer type of the same width.
func (t IntType) Equal(o Type) bool {
	ot, ok := o.(IntType)
	return ok && ot.Bits == t.Bits
}

// Mask returns the bit mask selecting the low Bits bits of a uint64.
func (t IntType) Mask() uint64 {
	if t.Bits >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(t.Bits)) - 1
}

// SignBit returns the mask with only the sign bit of the type set.
func (t IntType) SignBit() uint64 { return uint64(1) << uint(t.Bits-1) }

// VoidType is the type of functions that return no value.
type VoidType struct{}

func (VoidType) String() string { return "void" }

// Equal reports whether o is void.
func (VoidType) Equal(o Type) bool {
	_, ok := o.(VoidType)
	return ok
}

// PtrType is an opaque pointer type (LLVM 15+ style "ptr").
type PtrType struct{}

func (PtrType) String() string { return "ptr" }

// Equal reports whether o is a pointer type.
func (PtrType) Equal(o Type) bool {
	_, ok := o.(PtrType)
	return ok
}

// Convenience singletons for the common types.
var (
	I1    = IntType{1}
	I8    = IntType{8}
	I16   = IntType{16}
	I32   = IntType{32}
	I64   = IntType{64}
	Void  = VoidType{}
	ptrTy = PtrType{}
)

// IsInt reports whether t is an integer type, returning it if so.
func IsInt(t Type) (IntType, bool) {
	it, ok := t.(IntType)
	return it, ok
}
