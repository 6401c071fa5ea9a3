package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// The reference implementations the differential tests and fuzzers
// compare against: the rune-by-rune lexer and the clone + renumber +
// Sprintf-print + fingerprint key, as they were before the front half
// stopped copying. Their bytes define the persisted key format.

func refLex(line string) []string {
	if i := strings.IndexByte(line, ';'); i >= 0 {
		line = line[:i]
	}
	var words []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			words = append(words, cur.String())
			cur.Reset()
		}
	}
	for _, r := range line {
		switch r {
		case ' ', '\t':
			flush()
		case '(', ')', ',', '=', '[', ']', '{', '}', ':':
			flush()
			words = append(words, string(r))
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return words
}

func refCanonicalText(f *Function) string {
	c := CloneFunc(f)
	c.Attrs = ""
	RenumberFunc(c)
	return refFuncString(c)
}

func refCanonicalKey(f *Function) string { return refFingerprintText(refCanonicalText(f)) }

func refStructurallyEqual(a, b *Function) bool {
	ca, cb := CloneFunc(a), CloneFunc(b)
	ca.NameStr, cb.NameStr = "f", "f"
	ca.Attrs, cb.Attrs = "", ""
	RenumberFunc(ca)
	RenumberFunc(cb)
	return refFuncString(ca) == refFuncString(cb)
}

func refFuncString(f *Function) string {
	var sb strings.Builder
	params := make([]string, len(f.Params))
	for i, p := range f.Params {
		s := p.Ty.String()
		if p.Noundef {
			s += " noundef"
		}
		params[i] = s + " %" + p.NameStr
	}
	fmt.Fprintf(&sb, "define %s @%s(%s)", f.RetTy, f.NameStr, strings.Join(params, ", "))
	if f.Attrs != "" {
		sb.WriteString(" " + f.Attrs)
	}
	sb.WriteString(" {\n")
	for i, b := range f.Blocks {
		if i > 0 {
			fmt.Fprintf(&sb, "\n%s:\n", b.NameStr)
		} else if len(f.Blocks) > 1 {
			fmt.Fprintf(&sb, "%s:\n", b.NameStr)
		}
		for _, in := range b.Instrs {
			sb.WriteString("  ")
			sb.WriteString(refFormatInstr(in))
			sb.WriteByte('\n')
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// refOperand is what the Operand method of every Value used to render.
func refOperand(v Value) string {
	switch v := v.(type) {
	case *Const:
		if v.Ty.Bits == 1 {
			if v.Val&1 == 1 {
				return "true"
			}
			return "false"
		}
		return strconv.FormatInt(v.Signed(), 10)
	case *Undef:
		return "undef"
	case *Poison:
		return "poison"
	case *Param:
		return "%" + v.NameStr
	case *GlobalRef:
		return "@" + v.NameStr
	case *Instr:
		return "%" + v.NameStr
	case *pendingRef:
		return "%" + v.name
	}
	panic(fmt.Sprintf("refOperand: %T", v))
}

func refOperandWithType(v Value) string {
	return fmt.Sprintf("%s %s", v.Type(), refOperand(v))
}

func refFormatInstr(in *Instr) string {
	switch {
	case in.Op.IsBinary():
		return fmt.Sprintf("%%%s = %s%s %s %s, %s", in.NameStr, in.Op, in.Flags,
			in.Ty, refOperand(in.Args[0]), refOperand(in.Args[1]))
	case in.Op == OpICmp:
		return fmt.Sprintf("%%%s = icmp %s %s %s, %s", in.NameStr, in.Pred,
			in.Args[0].Type(), refOperand(in.Args[0]), refOperand(in.Args[1]))
	case in.Op == OpSelect:
		return fmt.Sprintf("%%%s = select %s, %s, %s", in.NameStr,
			refOperandWithType(in.Args[0]), refOperandWithType(in.Args[1]), refOperandWithType(in.Args[2]))
	case in.Op.IsCast():
		return fmt.Sprintf("%%%s = %s %s to %s", in.NameStr, in.Op,
			refOperandWithType(in.Args[0]), in.Ty)
	case in.Op == OpFreeze:
		return fmt.Sprintf("%%%s = freeze %s", in.NameStr, refOperandWithType(in.Args[0]))
	case in.Op == OpAlloca:
		return fmt.Sprintf("%%%s = alloca %s", in.NameStr, in.AllocTy)
	case in.Op == OpLoad:
		return fmt.Sprintf("%%%s = load %s, ptr %s", in.NameStr, in.Ty, refOperand(in.Args[0]))
	case in.Op == OpStore:
		return fmt.Sprintf("store %s, ptr %s", refOperandWithType(in.Args[0]), refOperand(in.Args[1]))
	case in.Op == OpCall:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = refOperandWithType(a)
		}
		call := fmt.Sprintf("call %s @%s(%s)", in.Ty, in.Callee, strings.Join(args, ", "))
		if in.HasResult() {
			return fmt.Sprintf("%%%s = %s", in.NameStr, call)
		}
		return call
	case in.Op == OpPhi:
		incs := make([]string, len(in.Incs))
		for i, inc := range in.Incs {
			incs[i] = fmt.Sprintf("[ %s, %%%s ]", refOperand(inc.Val), inc.Block.NameStr)
		}
		return fmt.Sprintf("%%%s = phi %s %s", in.NameStr, in.Ty, strings.Join(incs, ", "))
	case in.Op == OpRet:
		if len(in.Args) == 0 {
			return "ret void"
		}
		return fmt.Sprintf("ret %s", refOperandWithType(in.Args[0]))
	case in.Op == OpBr:
		return fmt.Sprintf("br label %%%s", in.Succs[0].NameStr)
	case in.Op == OpCondBr:
		return fmt.Sprintf("br i1 %s, label %%%s, label %%%s",
			refOperand(in.Args[0]), in.Succs[0].NameStr, in.Succs[1].NameStr)
	case in.Op == OpSwitch:
		var sb strings.Builder
		fmt.Fprintf(&sb, "switch %s, label %%%s [", refOperandWithType(in.Args[0]), in.Succs[0].NameStr)
		for i, c := range in.Cases {
			fmt.Fprintf(&sb, " %s, label %%%s", refOperandWithType(c), in.Succs[i+1].NameStr)
		}
		sb.WriteString(" ]")
		return sb.String()
	case in.Op == OpUnreachable:
		return "unreachable"
	}
	return fmt.Sprintf("<invalid op %d>", int(in.Op))
}

func refFingerprintText(s string) string {
	lines := strings.Split(s, "\n")
	var out []string
	for _, l := range lines {
		l = strings.Join(strings.Fields(l), " ")
		if l != "" {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
