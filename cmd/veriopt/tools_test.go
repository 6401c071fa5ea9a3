package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeLL writes fixture files into a fresh directory and returns a
// path resolver.
func writeLL(t *testing.T, files map[string]string) func(string) string {
	t.Helper()
	dir := t.TempDir()
	for name, text := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return func(name string) string { return filepath.Join(dir, name) }
}

const (
	llAddZero = "define i32 @f(i32 noundef %x) {\n  %r = add i32 %x, 0\n  ret i32 %r\n}\n"
	llIdent   = "define i32 @f(i32 noundef %x) {\n  ret i32 %x\n}\n"
	llAddOne  = "define i32 @f(i32 noundef %x) {\n  %r = add i32 %x, 1\n  ret i32 %r\n}\n"
	// (x*y)^2 against x^2*y^2: true, and beyond one SAT conflict.
	llMulA = "define i32 @g(i32 noundef %x, i32 noundef %y) {\n  %a = mul i32 %x, %y\n  %b = mul i32 %a, %a\n  ret i32 %b\n}\n"
	llMulB = "define i32 @g(i32 noundef %x, i32 noundef %y) {\n  %a = mul i32 %x, %x\n  %b = mul i32 %y, %y\n  %c = mul i32 %a, %b\n  ret i32 %c\n}\n"
)

// TestCheckExitCodes pins `veriopt check`'s contract with scripts: 0
// equivalent, 1 semantic or syntax error, 2 inconclusive, 3 usage or
// source errors; a module reports the worst of its functions.
func TestCheckExitCodes(t *testing.T) {
	p := writeLL(t, map[string]string{
		"src.ll": llAddZero, "tgt.ll": llIdent, "bad.ll": llAddOne,
		"mula.ll": llMulA, "mulb.ll": llMulB, "garbage.ll": "definitely not IR\n",
		"msrc.ll": llAddZero + llMulA, "mtgt.ll": llAddOne + llMulA,
	})
	for _, tc := range []struct {
		name string
		args []string
		code int
		out  string
	}{
		{"equivalent", []string{p("src.ll"), p("tgt.ll")}, 0, "Transformation seems to be correct!\n"},
		{"miscompile", []string{p("src.ll"), p("bad.ll")}, 1, "ERROR: Value mismatch"},
		{"budget", []string{"-budget", "1", p("mula.ll"), p("mulb.ll")}, 2, "solver budget exhausted"},
		{"unparsable target", []string{p("src.ll"), p("garbage.ll")}, 1, "ERROR: couldn't parse transformed IR"},
		{"unparsable source", []string{p("garbage.ll"), p("tgt.ll")}, 3, ""},
		{"unreadable source", []string{p("missing.ll"), p("tgt.ll")}, 3, ""},
		{"unreadable target", []string{p("src.ll"), p("missing.ll")}, 3, ""},
		{"one file", []string{p("src.ll")}, 3, ""},
		{"module", []string{"-workers", "2", p("msrc.ll"), p("mtgt.ll")}, 1,
			"---- @f ----\nERROR: Value mismatch"},
	} {
		var out bytes.Buffer
		if code := cmdCheck(context.Background(), tc.args, &out); code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, code, tc.code, out.String())
		}
		if !strings.Contains(out.String(), tc.out) || (tc.out == "") != (out.Len() == 0) {
			t.Errorf("%s: stdout %q, want it to contain %q", tc.name, out.String(), tc.out)
		}
	}
	var out bytes.Buffer
	cmdCheck(context.Background(), []string{p("msrc.ll"), p("mtgt.ll")}, &out)
	if !strings.HasSuffix(out.String(), "---- @g ----\nTransformation seems to be correct!\n") {
		t.Errorf("module: second function's verdict missing or out of order:\n%s", out.String())
	}
}

// TestCheckInterrupted: a canceled run still prints one (canceled)
// verdict per function and exits 130.
func TestCheckInterrupted(t *testing.T) {
	p := writeLL(t, map[string]string{"src.ll": llAddZero, "tgt.ll": llIdent})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	if code := cmdCheck(ctx, []string{p("src.ll"), p("tgt.ll")}, &out); code != 130 {
		t.Errorf("exit %d, want 130", code)
	}
	if !strings.Contains(out.String(), "canceled") {
		t.Errorf("stdout %q, want a canceled verdict", out.String())
	}
}

// TestIRTools drives `veriopt ir` on a fixture: the numbers are the
// cost model's and the interpreter's, the texts the printer's.
// TestIRInterpArgs: an argument reads as a signed or an unsigned 64-bit
// integer, so every result `ir interp` prints reads back as an argument.
func TestIRInterpArgs(t *testing.T) {
	p := writeLL(t, map[string]string{"id.ll": "define i64 @id(i64 %0) {\n  ret i64 %0\n}\n"})
	for _, tc := range []struct{ arg, want string }{
		{"0xffffffffffffffff", "result: -1 (0xffffffffffffffff)\n"},
		{"18446744073709551615", "result: -1 (0xffffffffffffffff)\n"},
		{"-1", "result: -1 (0xffffffffffffffff)\n"},
		{"9223372036854775808", "result: -9223372036854775808 (0x8000000000000000)\n"},
		{"-9223372036854775808", "result: -9223372036854775808 (0x8000000000000000)\n"},
		{"0x7fffffffffffffff", "result: 9223372036854775807 (0x7fffffffffffffff)\n"},
		{"0x10000000000000000", ""},
		{"-9223372036854775809", ""},
		{"two", ""},
	} {
		var out bytes.Buffer
		err := cmdIR([]string{"interp", p("id.ll"), "id", tc.arg}, &out)
		if got := out.String(); got != tc.want || (err != nil) != (tc.want == "") {
			t.Errorf("ir interp id %s: stdout %q, err %v; want %q", tc.arg, got, err, tc.want)
		}
	}
}

func TestIRTools(t *testing.T) {
	p := writeLL(t, map[string]string{"src.ll": llAddZero, "mul.ll": llMulA,
		"use.ll": "define i32 @f(i32 noundef %0) {\n  %2 = add i32 %0, %3\n  %3 = add i32 %0, 1\n  ret i32 %2\n}\n"})
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"cost", p("mul.ll")}, "@g: latency=7 icount=3 size=20\n"},
		{[]string{"interp", p("mul.ll"), "g", "2", "3"}, "result: 36 (0x24)\n"},
		{[]string{"interp", p("mul.ll"), "g", "-1", "1"}, "result: 1 (0x1)\n"},
		{[]string{"print", p("src.ll")}, llAddZero},
		{[]string{"verify", p("src.ll")}, "OK\n"},
		{[]string{"opt", p("src.ll")}, "define i32 @f(i32 noundef %0) {\n  ret i32 %0\n}\n"},
	} {
		var out bytes.Buffer
		if err := cmdIR(tc.args, &out); err != nil {
			t.Errorf("ir %v: %v", tc.args, err)
		}
		if out.String() != tc.want {
			t.Errorf("ir %v: stdout %q, want %q", tc.args, out.String(), tc.want)
		}
	}
	for _, args := range [][]string{
		{"verify", p("use.ll")},
		{"interp", p("mul.ll"), "nosuch"},
		{"interp", p("mul.ll"), "g", "two"},
		{"cost", p("missing.ll")},
		{"frobnicate", p("src.ll")},
		{"print"},
	} {
		var out bytes.Buffer
		if err := cmdIR(args, &out); err == nil || out.Len() != 0 {
			t.Errorf("ir %v: err %v, stdout %q; want an error and no output", args, err, out.String())
		}
	}
}
