package ir

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// printer appends IR text to buf. It is the one place declaration,
// function and instruction syntax is spelled; its callers differ only
// in naming scheme and layout.
type printer struct {
	buf []byte
	// nums is the naming scheme, by name field: a param, block or result
	// found in it prints as its number, any other under its own name.
	nums map[*string]int
	// key selects the cache-key layout: no indentation, no blank lines,
	// no trailing newline. That is FingerprintText of the text layout as
	// long as no printed name holds whitespace; odd records that one
	// might, and CanonicalKey then pays for the FingerprintText pass.
	key, odd bool
}

// canonical puts p under the naming scheme RenumberFunc writes into f,
// without touching f. A name that already is its number prints the same
// bytes, so only the others are mapped: a function RenumberFunc has
// numbered takes no map, and p (on the caller's stack) is all it costs.
func (p *printer) canonical(f *Function) *printer {
	canonicalNumbers(f, func(name *string, n int) {
		if canonicalName(*name, n) {
			return
		}
		if p.nums == nil {
			p.nums = make(map[*string]int, len(f.Params)+len(f.Blocks)+f.NumInstrs())
		}
		p.nums[name] = n
	})
	return p
}

// canonicalName reports whether name is what RenumberFunc names the
// value numbered n, without formatting a string.
func canonicalName(name string, n int) bool {
	if n == entryNum {
		return name == "entry"
	}
	var buf [20]byte
	return string(strconv.AppendInt(buf[:0], int64(n), 10)) == name
}

func (p *printer) s(s string) *printer {
	p.buf = append(p.buf, s...)
	return p
}

// sym appends a name taken from the function as it is.
func (p *printer) sym(s string) *printer {
	if p.key && !p.odd {
		p.odd = strings.ContainsFunc(s, func(r rune) bool { return r <= ' ' || r >= utf8.RuneSelf })
	}
	return p.s(s)
}

// name appends the name of a param, block or result, given its name
// field: its number under a naming scheme that has one, own otherwise.
func (p *printer) name(field *string) *printer {
	n, ok := p.nums[field]
	switch {
	case !ok:
		return p.sym(*field)
	case n == entryNum:
		return p.s("entry")
	}
	p.buf = strconv.AppendInt(p.buf, int64(n), 10)
	return p
}

func (p *printer) typ(t Type) *printer {
	switch t := t.(type) {
	case IntType:
		p.buf = strconv.AppendInt(append(p.buf, 'i'), int64(t.Bits), 10)
	case PtrType:
		p.s("ptr")
	case VoidType:
		p.s("void")
	default:
		p.buf = fmt.Appendf(p.buf, "%s", t)
	}
	return p
}

// val appends v as it appears in an operand position: i1 constants as
// true/false, wider ones as signed decimal, matching clang output.
func (p *printer) val(v Value) *printer {
	switch v := v.(type) {
	case *Const:
		if v.Ty.Bits == 1 {
			return p.s(strconv.FormatBool(v.Val&1 == 1))
		}
		p.buf = strconv.AppendInt(p.buf, v.Signed(), 10)
		return p
	case *Param:
		return p.s("%").name(&v.NameStr)
	case *Instr:
		return p.s("%").name(&v.NameStr)
	case *pendingRef:
		return p.s("%").sym(v.name)
	case *GlobalRef:
		return p.s("@").sym(v.NameStr)
	case *Undef:
		return p.s("undef")
	case *Poison:
		return p.s("poison")
	}
	p.buf = fmt.Appendf(p.buf, "<%T>", v)
	return p
}

// typed appends "<type> <operand>".
func (p *printer) typed(v Value) *printer { return p.typ(v.Type()).s(" ").val(v) }

func (p *printer) label(b *Block) *printer { return p.s("label %").name(&b.NameStr) }

// instr appends one instruction without indentation or newline.
func (p *printer) instr(in *Instr) *printer {
	// Every opcode that can define a value lies in OpAdd..OpPhi.
	if in.HasResult() && in.Op >= OpAdd && in.Op <= OpPhi {
		p.s("%").name(&in.NameStr).s(" = ")
	}
	switch {
	case in.Op.IsBinary():
		p.s(in.Op.String()).s(in.Flags.String()).s(" ").typ(in.Ty).s(" ").val(in.Args[0]).s(", ").val(in.Args[1])
	case in.Op == OpICmp:
		p.s("icmp ").s(in.Pred.String()).s(" ").typed(in.Args[0]).s(", ").val(in.Args[1])
	case in.Op == OpSelect:
		p.s("select ").typed(in.Args[0]).s(", ").typed(in.Args[1]).s(", ").typed(in.Args[2])
	case in.Op.IsCast():
		p.s(in.Op.String()).s(" ").typed(in.Args[0]).s(" to ").typ(in.Ty)
	case in.Op == OpFreeze:
		p.s("freeze ").typed(in.Args[0])
	case in.Op == OpAlloca:
		p.s("alloca ").typ(in.AllocTy)
	case in.Op == OpLoad:
		p.s("load ").typ(in.Ty).s(", ptr ").val(in.Args[0])
	case in.Op == OpStore:
		p.s("store ").typed(in.Args[0]).s(", ptr ").val(in.Args[1])
	case in.Op == OpCall:
		p.s("call ").typ(in.Ty).s(" @").sym(in.Callee).s("(")
		for i, a := range in.Args {
			if i > 0 {
				p.s(", ")
			}
			p.typed(a)
		}
		p.s(")")
	case in.Op == OpPhi:
		p.s("phi ").typ(in.Ty)
		for i, inc := range in.Incs {
			if i > 0 {
				p.s(",")
			}
			p.s(" [ ").val(inc.Val).s(", %").name(&inc.Block.NameStr).s(" ]")
		}
	case in.Op == OpRet && len(in.Args) == 0:
		p.s("ret void")
	case in.Op == OpRet:
		p.s("ret ").typed(in.Args[0])
	case in.Op == OpBr:
		p.s("br ").label(in.Succs[0])
	case in.Op == OpCondBr:
		p.s("br i1 ").val(in.Args[0]).s(", ").label(in.Succs[0]).s(", ").label(in.Succs[1])
	case in.Op == OpSwitch:
		p.s("switch ").typed(in.Args[0]).s(", ").label(in.Succs[0]).s(" [")
		for i, c := range in.Cases {
			p.s(" ").typed(c).s(", ").label(in.Succs[i+1])
		}
		p.s(" ]")
	case in.Op == OpUnreachable:
		p.s("unreachable")
	default:
		p.buf = fmt.Appendf(p.buf, "<invalid op %d>", int(in.Op))
	}
	return p
}

// fn appends a function definition named name, with the attribute
// suffix attrs.
func (p *printer) fn(f *Function, name, attrs string) *printer {
	p.buf = slices.Grow(p.buf, 64+32*f.NumInstrs())
	p.s("define ").typ(f.RetTy).s(" @").sym(name).s("(")
	for i, pr := range f.Params {
		if i > 0 {
			p.s(", ")
		}
		p.typ(pr.Ty)
		if pr.Noundef {
			p.s(" noundef")
		}
		p.s(" %").name(&pr.NameStr)
	}
	p.s(")")
	if attrs != "" {
		p.s(" ").s(attrs)
	}
	p.s(" {\n")
	for i, b := range f.Blocks {
		// The entry label is printed whenever there is a second block.
		if len(f.Blocks) > 1 {
			if i > 0 && !p.key {
				p.s("\n")
			}
			p.name(&b.NameStr).s(":\n")
		}
		for _, in := range b.Instrs {
			if !p.key {
				p.s("  ")
			}
			p.instr(in).s("\n")
		}
	}
	p.s("}")
	if !p.key {
		p.s("\n")
	}
	return p
}

// Print renders a module in LLVM-like textual syntax.
func Print(m *Module) string {
	var p printer
	for i, d := range m.Decls {
		if i > 0 {
			p.s("\n")
		}
		p.s("declare ").typ(d.RetTy).s(" @").s(d.NameStr).s("(")
		for i, t := range d.ParamTys {
			if i > 0 {
				p.s(", ")
			}
			p.typ(t)
		}
		p.s(")")
		if d.ReadNone {
			p.s(" readnone")
		}
		p.s("\n")
	}
	for i, f := range m.Funcs {
		if i > 0 || len(m.Decls) > 0 {
			p.s("\n")
		}
		p.fn(f, f.NameStr, f.Attrs)
	}
	return string(p.buf)
}

// FuncString renders a single function to a string.
func FuncString(f *Function) string { return string(new(printer).fn(f, f.NameStr, f.Attrs).buf) }

// CanonicalText returns the printed form f would have after
// RenumberFunc, without its attribute suffix: structurally identical
// functions print identically. f is only read.
func CanonicalText(f *Function) string {
	var p printer
	return string(p.canonical(f).fn(f, f.NameStr, "").buf)
}

// CanonicalKey returns FingerprintText(CanonicalText(f)) — the form the
// verdict cache, the verdict store and the cluster ring key functions
// by — printed in one pass. Its bytes are a persisted format.
func CanonicalKey(f *Function) string {
	p := printer{key: true}
	p.canonical(f).fn(f, f.NameStr, "")
	if p.odd {
		return FingerprintText(string(p.buf))
	}
	return string(p.buf)
}

// FuncsStructurallyEqual reports whether two functions are identical
// up to their own names, attribute suffixes and local renaming.
func FuncsStructurallyEqual(a, b *Function) bool {
	var pa, pb printer
	return bytes.Equal(pa.canonical(a).fn(a, "f", "").buf, pb.canonical(b).fn(b, "f", "").buf)
}
