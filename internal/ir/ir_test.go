package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTypeSizes(t *testing.T) {
	tests := []struct {
		ty    Type
		size  int64
		align int64
	}{
		{I1, 1, 1},
		{I8, 1, 1},
		{I16, 2, 2},
		{I32, 4, 4},
		{I48, 6, 8},
		{I64, 8, 8},
		{F32, 4, 4},
		{F64, 8, 8},
		{BytePtr, 8, 8},
		{&ArrayType{Elem: I32, Len: 10}, 40, 4},
		{&ArrayType{Elem: I8, Len: 3}, 3, 1},
	}
	for _, tt := range tests {
		if got := tt.ty.Size(); got != tt.size {
			t.Errorf("%s: size = %d, want %d", tt.ty, got, tt.size)
		}
		if got := tt.ty.Align(); got != tt.align {
			t.Errorf("%s: align = %d, want %d", tt.ty, got, tt.align)
		}
	}
}

func TestStructLayout(t *testing.T) {
	// struct { char c; int i; char c2; double d; } — SysV AMD64 layout.
	st := NewStruct("s", []Field{
		{Name: "c", Ty: I8},
		{Name: "i", Ty: I32},
		{Name: "c2", Ty: I8},
		{Name: "d", Ty: F64},
	})
	wantOff := []int64{0, 4, 8, 16}
	for i, w := range wantOff {
		if st.Fields[i].Offset != w {
			t.Errorf("field %d offset = %d, want %d", i, st.Fields[i].Offset, w)
		}
	}
	if st.Size() != 24 {
		t.Errorf("size = %d, want 24", st.Size())
	}
	if st.Align() != 8 {
		t.Errorf("align = %d, want 8", st.Align())
	}
}

func TestStructFieldAt(t *testing.T) {
	st := NewStruct("s", []Field{
		{Name: "a", Ty: I32},
		{Name: "b", Ty: I32},
		{Name: "arr", Ty: &ArrayType{Elem: I8, Len: 8}},
	})
	cases := []struct {
		off  int64
		want int
	}{
		{0, 0}, {3, 0}, {4, 1}, {7, 1}, {8, 2}, {15, 2}, {16, -1}, {-1, -1},
	}
	for _, c := range cases {
		if got := st.FieldAt(c.off); got != c.want {
			t.Errorf("FieldAt(%d) = %d, want %d", c.off, got, c.want)
		}
	}
}

func TestTypesEqual(t *testing.T) {
	if !TypesEqual(I32, IntN(32)) {
		t.Error("i32 != i32")
	}
	if TypesEqual(I32, I64) {
		t.Error("i32 == i64")
	}
	if !TypesEqual(Ptr(I32), Ptr(I8)) {
		t.Error("pointers should compare equal regardless of pointee")
	}
	a := &ArrayType{Elem: I32, Len: 4}
	b := &ArrayType{Elem: I32, Len: 4}
	c := &ArrayType{Elem: I32, Len: 5}
	if !TypesEqual(a, b) || TypesEqual(a, c) {
		t.Error("array equality broken")
	}
}

func TestAlignUpProperty(t *testing.T) {
	f := func(v uint16, aExp uint8) bool {
		a := int64(1) << (aExp % 4) // 1,2,4,8
		r := alignUp(int64(v), a)
		return r >= int64(v) && r%a == 0 && r-int64(v) < a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

const roundTripSrc = `module "rt"
struct %point { i32 x, f64 y }
global @msg const [6 x i8] = bytes "hello\x00"
global @zeros [7 x i32] = zero
global @tab [2 x ptr] = array [addr @msg + 0, addr &main]
declare @putchar fn(i32) i32
func @main fn(i32, ptr) i32 regs 10 names(argc, argv) {
entry:
  %r2 = alloca [10 x i32] name "arr"
  %r3 = gep %r2, 4, %r0
  store i32 5, %r3
  %r4 = load i32, %r3
  %r5 = add i32 %r4, 1
  %r6 = cmp slt i32 %r5, 10
  condbr %r6, then, done
then:
  %r7 = call i32 &putchar(i32 65) fixed 1
  %r8 = sitofp i32 %r7 to f64
  %r9 = select %r6, i32 1, 2
  switch i32 %r9, default done [1: then, 2: done]
done:
  ret i32 0
}
`

func TestParsePrintRoundTrip(t *testing.T) {
	m, err := Parse(roundTripSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	out1 := Print(m)
	m2, err := Parse(out1)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out1)
	}
	out2 := Print(m2)
	if out1 != out2 {
		t.Errorf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", out1, out2)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		`module "x" bogus`,
		`module "x" global @g i32 =`,
		`module "x" func @f fn() void regs 0 { entry: br nowhere }`,
		`module "x" struct %s { i32 }`,
		`"0`,
		`module "x\`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestVerifyCatchesBadRegister(t *testing.T) {
	m := NewModule("v")
	f := &Func{Name: "f", Sig: &FuncType{Ret: Void}, NumRegs: 1}
	f.Blocks = []*Block{{Name: "entry", Instrs: []Instr{
		{Op: OpBin, Dst: 0, Ty: I32, Bin: Add, A: Reg(5, I32), B: ConstInt(1, I32)},
		{Op: OpRet},
	}}}
	m.AddFunc(f)
	if err := Verify(m); err == nil {
		t.Error("Verify accepted out-of-range register")
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	m := NewModule("v")
	f := &Func{Name: "f", Sig: &FuncType{Ret: Void}, NumRegs: 1}
	f.Blocks = []*Block{{Name: "entry", Instrs: []Instr{
		{Op: OpBin, Dst: 0, Ty: I32, Bin: Add, A: ConstInt(1, I32), B: ConstInt(1, I32)},
	}}}
	m.AddFunc(f)
	if err := Verify(m); err == nil {
		t.Error("Verify accepted block without terminator")
	}
}

func TestModuleCloneIsDeep(t *testing.T) {
	m, err := Parse(roundTripSrc)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	// Mutating the clone must not affect the original.
	c.Func("main").Blocks[0].Instrs[0].Name = "mutated"
	if m.Func("main").Blocks[0].Instrs[0].Name == "mutated" {
		t.Error("Clone shares instruction storage")
	}
	if c.Func("putchar") == nil || !c.Func("putchar").IsDecl {
		t.Error("Clone lost declaration")
	}
}

func TestConstZeroDetection(t *testing.T) {
	cases := []struct {
		c    Const
		want bool
	}{
		{nil, true},
		{ConstZero{}, true},
		{ConstIntVal{V: 0}, true},
		{ConstIntVal{V: 3}, false},
		{ConstBytes{Data: []byte{0, 0}}, true},
		{ConstBytes{Data: []byte("a")}, false},
		{ConstArrayVal{Elems: []Const{ConstIntVal{V: 0}, ConstIntVal{V: 1}}}, false},
	}
	for i, c := range cases {
		if got := ZeroConst(c.c); got != c.want {
			t.Errorf("case %d: ZeroConst = %v, want %v", i, got, c.want)
		}
	}
}

func TestFuncHelpers(t *testing.T) {
	m, err := Parse(roundTripSrc)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Func("main")
	if f.BlockIndex("then") != 1 || f.BlockIndex("nope") != -1 {
		t.Error("BlockIndex wrong")
	}
	if f.InstrCount() == 0 {
		t.Error("InstrCount = 0")
	}
	if m.FuncIndex("main") < 0 || m.FuncIndex("ghost") != -1 {
		t.Error("FuncIndex wrong")
	}
	if !strings.Contains(PrintFunc(f), "func @main") {
		t.Error("PrintFunc missing header")
	}
}

func TestModuleReindex(t *testing.T) {
	m, err := Parse(roundTripSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Remove the first function directly and reindex.
	removed := m.Funcs[0].Name
	m.Funcs = m.Funcs[1:]
	m.Reindex()
	if m.Func(removed) != nil && m.Funcs[0].Name != removed {
		t.Errorf("%s should be gone after reindex", removed)
	}
	for _, f := range m.Funcs {
		if m.FuncIndex(f.Name) < 0 {
			t.Errorf("%s lost its index", f.Name)
		}
	}
}
