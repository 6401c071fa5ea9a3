package main

import (
	"fmt"
	"io"
	"strconv"

	"veriopt/internal/costmodel"
	"veriopt/internal/instcombine"
	"veriopt/internal/interp"
	"veriopt/internal/ir"
)

// cmdIR is the IR toolbox:
//
//	veriopt ir print   file.ll           # parse + canonical print
//	veriopt ir verify  file.ll           # structural verification
//	veriopt ir opt     file.ll           # run the instcombine pass, unverified
//	veriopt ir cost    file.ll           # latency / icount / size metrics
//	veriopt ir interp  file.ll fn args   # interpret a function on inputs
//
// `ir opt` prints what the pass produced, proven or not; the
// verifier-gated form is `veriopt optimize file.ll`.
func cmdIR(args []string, stdout io.Writer) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: veriopt ir print|verify|opt|cost|interp <file.ll> [fn args...]")
	}
	cmd, rest := args[0], args[2:]
	m, err := readModule(args[1], cmd == "verify")
	if err != nil {
		return err
	}
	switch cmd {
	case "print":
		fmt.Fprint(stdout, ir.Print(m))
	case "verify":
		fmt.Fprintln(stdout, "OK")
	case "opt":
		for i, f := range m.Funcs {
			m.Funcs[i] = instcombine.Run(f)
		}
		fmt.Fprint(stdout, ir.Print(m))
	case "cost":
		for _, f := range m.Funcs {
			ms := costmodel.Measure(f)
			fmt.Fprintf(stdout, "@%s: latency=%d icount=%d size=%d\n", f.Name(), ms.Latency, ms.ICount, ms.Size)
		}
	case "interp":
		if len(rest) < 1 {
			return fmt.Errorf("interp needs a function name")
		}
		f := m.Func(rest[0])
		if f == nil {
			return fmt.Errorf("no function @%s", rest[0])
		}
		var vals []interp.Val
		for _, a := range rest[1:] {
			v, err := parseArg(a)
			if err != nil {
				return fmt.Errorf("argument %q: %w", a, err)
			}
			vals = append(vals, interp.V(v))
		}
		out, err := interp.Run(f, vals, interp.DefaultConfig())
		if err != nil {
			return err
		}
		switch {
		case out.UB:
			fmt.Fprintf(stdout, "undefined behavior: %s\n", out.UBReason)
		case out.Ret.Poison:
			fmt.Fprintln(stdout, "result: poison")
		default:
			fmt.Fprintf(stdout, "result: %d (0x%x)\n", int64(out.Ret.Bits), out.Ret.Bits)
		}
		for _, cobs := range out.Calls {
			fmt.Fprintf(stdout, "observed call @%s(%v)\n", cobs.Site.Callee, cobs.Args)
		}
	default:
		return fmt.Errorf("unknown ir command %q", cmd)
	}
	return nil
}

// parseArg reads an interp argument: a signed 64-bit integer, or an
// unsigned one, so that a result printed as 0xffffffffffffffff reads
// back. Out of both ranges, the error is the signed parse's.
func parseArg(a string) (uint64, error) {
	v, err := strconv.ParseInt(a, 0, 64)
	if err == nil {
		return uint64(v), nil
	}
	if u, uerr := strconv.ParseUint(a, 0, 64); uerr == nil {
		return u, nil
	}
	return 0, err
}
