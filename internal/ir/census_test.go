package ir

import "testing"

// TestUsesOfAlloca takes the census of %a in one function per escape
// route and per access pattern, and requires it to allocate nothing.
func TestUsesOfAlloca(t *testing.T) {
	cases := []struct {
		name, body string
		want       AllocaUses // Store is checked by its presence only
	}{
		{"phi incoming", `  %b = alloca i32
  store i32 %x, ptr %a
  br i1 %c, label %l, label %r

l:
  br label %j

r:
  br label %j

j:
  %p = phi ptr [ %a, %l ], [ %b, %r ]
  %v = load i32, ptr %p
  ret i32 %v
`, AllocaUses{Stores: 1, Escapes: true}},
		{"select arm", `  %b = alloca i32
  store i32 %x, ptr %a
  %p = select i1 %c, ptr %a, ptr %b
  %v = load i32, ptr %p
  ret i32 %v
`, AllocaUses{Stores: 1, Escapes: true}},
		{"call argument", `  store i32 %x, ptr %a
  call void @g(ptr %a)
  %v = load i32, ptr %a
  ret i32 %v
`, AllocaUses{Loads: 1, Stores: 1, Escapes: true}},
		{"stored as a value", `  %b = alloca ptr
  store ptr %a, ptr %b
  ret i32 %x
`, AllocaUses{Escapes: true}},
		{"store to self", `  store ptr %a, ptr %a
  ret i32 %x
`, AllocaUses{Stores: 1, Escapes: true, Retyped: true}},
		{"icmp", `  %b = alloca i32
  %e = icmp eq ptr %a, %b
  %v = load i32, ptr %a
  ret i32 %v
`, AllocaUses{Loads: 1, Escapes: true}},
		// The IR's casts take integers only; freeze is the one unary
		// instruction a pointer passes through.
		{"freeze", `  %e = freeze ptr %a
  ret i32 %x
`, AllocaUses{Escapes: true}},
		{"retyped load", `  store i32 %x, ptr %a
  %v = load i8, ptr %a
  ret i32 %x
`, AllocaUses{Loads: 1, Stores: 1, Retyped: true}},
		{"retyped store", `  store i64 0, ptr %a
  %v = load i32, ptr %a
  ret i32 %v
`, AllocaUses{Loads: 1, Stores: 1, Retyped: true}},
		{"loaded only", `  %v = load i32, ptr %a
  %w = load i32, ptr %a
  %s = add i32 %v, %w
  ret i32 %s
`, AllocaUses{Loads: 2}},
		{"stored only", `  store i32 %x, ptr %a
  store i32 1, ptr %a
  ret i32 %x
`, AllocaUses{Stores: 2}},
	}
	for _, tc := range cases {
		m, err := Parse("declare void @g(ptr)\n\ndefine i32 @f(i1 noundef %c, i32 noundef %x) {\nentry:\n  %a = alloca i32\n" + tc.body + "}\n")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		f := m.Funcs[len(m.Funcs)-1]
		a := f.Blocks[0].Instrs[0]
		got := UsesOfAlloca(f, a)
		if (got.Store != nil) != (got.Stores > 0) {
			t.Errorf("%s: Store is %v with %d stores", tc.name, got.Store, got.Stores)
		}
		if got.Store != nil && (got.Store.Op != OpStore || got.Store.Args[1] != Value(a)) {
			t.Errorf("%s: Store is %s, not a store to %%a", tc.name, FormatInstr(got.Store))
		}
		got.Store = nil
		if got != tc.want {
			t.Errorf("%s: census %+v, want %+v", tc.name, got, tc.want)
		}
		if n := testing.AllocsPerRun(10, func() { UsesOfAlloca(f, a) }); n != 0 {
			t.Errorf("%s: the census allocates %v times", tc.name, n)
		}
	}
}

// TestAccessedAlloca names the alloca behind a load and a store, and
// nothing behind a pointer that is not one or an instruction that does
// not access memory.
func TestAccessedAlloca(t *testing.T) {
	f, err := ParseFunc(`define i32 @f(ptr noundef %p, i32 noundef %x) {
  %a = alloca i32
  store i32 %x, ptr %a
  %v = load i32, ptr %a
  %w = load i32, ptr %p
  %s = add i32 %v, %w
  ret i32 %s
}
`)
	if err != nil {
		t.Fatal(err)
	}
	ins := f.Blocks[0].Instrs
	for i, want := range []*Instr{nil, ins[0], ins[0], nil, nil, nil} {
		if got := AccessedAlloca(ins[i]); got != want {
			t.Errorf("AccessedAlloca(%s) = %v, want %v", FormatInstr(ins[i]), got, want)
		}
	}
}
