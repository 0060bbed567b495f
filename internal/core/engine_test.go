package core

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

// buildModule parses SIR text (tests drive the engine without the C front
// end, pinning down engine semantics in isolation).
func buildModule(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

func TestEngineArithmeticProgram(t *testing.T) {
	m := buildModule(t, `module "t"
func @main fn() i32 regs 4 {
entry:
  %r0 = add i32 2, 3
  %r1 = mul i32 %r0, 4
  %r2 = sub i32 %r1, 6
  ret i32 %r2
}
`)
	e, err := NewEngine(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	code, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if code != 14 {
		t.Errorf("exit = %d, want 14", code)
	}
}

func TestEngineAllocaLoadStore(t *testing.T) {
	m := buildModule(t, `module "t"
func @main fn() i32 regs 4 {
entry:
  %r0 = alloca [4 x i32] name "v"
  %r1 = gep %r0, 4, 2
  store i32 77, %r1
  %r2 = load i32, %r1
  ret i32 %r2
}
`)
	e, _ := NewEngine(m, Config{})
	code, err := e.Run()
	if err != nil || code != 77 {
		t.Errorf("got (%d, %v)", code, err)
	}
}

func TestEngineOutOfBoundsReport(t *testing.T) {
	m := buildModule(t, `module "t"
func @main fn() i32 regs 3 {
entry:
  %r0 = alloca [4 x i32] name "v"
  %r1 = gep %r0, 4, 4
  %r2 = load i32, %r1
  ret i32 %r2
}
`)
	e, _ := NewEngine(m, Config{})
	_, err := e.Run()
	be, ok := err.(*BugError)
	if !ok {
		t.Fatalf("expected BugError, got %v", err)
	}
	if be.Kind != OutOfBounds || be.Obj != "v" || be.Off != 16 || be.ObjSize != 16 {
		t.Errorf("report fields wrong: %+v", be)
	}
}

func TestEngineDivideByZero(t *testing.T) {
	m := buildModule(t, `module "t"
func @main fn() i32 regs 2 {
entry:
  %r0 = add i32 0, 0
  %r1 = sdiv i32 7, %r0
  ret i32 %r1
}
`)
	e, _ := NewEngine(m, Config{})
	_, err := e.Run()
	be, ok := err.(*BugError)
	if !ok || be.Kind != DivideByZero {
		t.Errorf("want DivideByZero, got %v", err)
	}
}

func TestEngineCallDepthLimit(t *testing.T) {
	m := buildModule(t, `module "t"
func @loop fn() i32 regs 1 {
entry:
  %r0 = call i32 &loop() fixed 0
  ret i32 %r0
}
func @main fn() i32 regs 1 {
entry:
  %r0 = call i32 &loop() fixed 0
  ret i32 %r0
}
`)
	e, _ := NewEngine(m, Config{MaxCallDepth: 64})
	_, err := e.Run()
	if _, ok := err.(*LimitError); !ok {
		t.Errorf("want LimitError (stack overflow), got %v", err)
	}
}

func TestEngineStepLimit(t *testing.T) {
	m := buildModule(t, `module "t"
func @main fn() i32 regs 1 {
entry:
  br entry
}
`)
	// An IR-level infinite loop needs a terminator target; single-block
	// self-loop suffices.
	e, _ := NewEngine(m, Config{MaxSteps: 1000})
	_, err := e.Run()
	if _, ok := err.(*LimitError); !ok {
		t.Errorf("want LimitError, got %v", err)
	}
}

func TestEngineGlobalInitializers(t *testing.T) {
	m := buildModule(t, `module "t"
global @nums [3 x i32] = array [int 5, int 6, int 7]
global @msg const [3 x i8] = bytes "ab\x00"
global @ptr ptr = addr @nums + 4
func @main fn() i32 regs 4 {
entry:
  %r0 = load ptr, @ptr
  %r1 = load i32, %r0
  ret i32 %r1
}
`)
	e, _ := NewEngine(m, Config{})
	code, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if code != 6 {
		t.Errorf("exit = %d, want 6 (through the global pointer)", code)
	}
	if e.Global("msg") == nil || e.Global("msg").Data[0] != 'a' {
		t.Error("byte global not initialized")
	}
}

func TestEngineExitCodePropagation(t *testing.T) {
	m := buildModule(t, `module "t"
declare @exit fn(i32) void
func @main fn() i32 regs 1 {
entry:
  call void &exit(i32 9) fixed 1
  ret i32 0
}
`)
	e, _ := NewEngine(m, Config{})
	code, err := e.Run()
	if err != nil || code != 9 {
		t.Errorf("got (%d, %v), want (9, nil)", code, err)
	}
}

func TestEngineLeakDetection(t *testing.T) {
	m := buildModule(t, `module "t"
declare @malloc fn(i64) ptr
declare @free fn(ptr) void
func @main fn() i32 regs 3 {
entry:
  %r0 = call ptr &malloc(i64 16) fixed 1
  %r1 = call ptr &malloc(i64 32) fixed 1
  call void &free(ptr %r1) fixed 1
  ret i32 0
}
`)
	e, _ := NewEngine(m, Config{DetectLeaks: true})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	leaks := e.Leaks()
	if len(leaks) != 1 || leaks[0].ObjSize != 16 {
		t.Errorf("leaks = %v, want one 16-byte leak", leaks)
	}
}

// TestEngineHeapNotRetainedWithoutLeakCheck pins that the leak-detection
// heap list is kept only when DetectLeaks asks for it: a malloc/free loop
// must not grow it, or every freed object stays reachable for the engine's
// lifetime.
func TestEngineHeapNotRetainedWithoutLeakCheck(t *testing.T) {
	m := buildModule(t, `module "t"
global @n i64 = int 0
declare @malloc fn(i64) ptr
declare @free fn(ptr) void
func @main fn() i32 regs 4 {
entry:
  br loop
loop:
  %r0 = call ptr &malloc(i64 64) fixed 1
  call void &free(ptr %r0) fixed 1
  %r1 = load i64, @n
  %r2 = add i64 %r1, 1
  store i64 %r2, @n
  %r3 = cmp slt i64 %r2, 100
  condbr %r3, loop, done
done:
  ret i32 0
}
`)
	e, _ := NewEngine(m, Config{})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Allocs; got != 100 {
		t.Fatalf("Allocs = %d, want 100", got)
	}
	if len(e.heap) != 0 {
		t.Errorf("heap list holds %d objects with DetectLeaks off, want 0", len(e.heap))
	}
}

func TestEngineStats(t *testing.T) {
	m := buildModule(t, `module "t"
func @helper fn(i32) i32 regs 2 {
entry:
  %r1 = add i32 %r0, 1
  ret i32 %r1
}
func @main fn() i32 regs 2 {
entry:
  %r0 = call i32 &helper(i32 1) fixed 1
  %r1 = call i32 &helper(i32 %r0) fixed 1
  ret i32 %r1
}
`)
	e, _ := NewEngine(m, Config{})
	code, err := e.Run()
	if err != nil || code != 3 {
		t.Fatalf("got (%d, %v)", code, err)
	}
	s := e.Stats()
	if s.Calls < 3 || s.Steps == 0 {
		t.Errorf("stats look wrong: %+v", s)
	}
}

func TestEngineStdoutCapture(t *testing.T) {
	m := buildModule(t, `module "t"
declare @__ss_putchar fn(i32) i32
func @main fn() i32 regs 1 {
entry:
  %r0 = call i32 &__ss_putchar(i32 104) fixed 1
  %r0 = call i32 &__ss_putchar(i32 105) fixed 1
  ret i32 0
}
`)
	e, _ := NewEngine(m, Config{})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Output() != "hi" {
		t.Errorf("output = %q", e.Output())
	}
}

func TestEngineStdinEOF(t *testing.T) {
	m := buildModule(t, `module "t"
declare @__ss_getchar fn() i32
func @main fn() i32 regs 1 {
entry:
  %r0 = call i32 &__ss_getchar() fixed 0
  ret i32 %r0
}
`)
	e, _ := NewEngine(m, Config{Stdin: strings.NewReader("")})
	code, _ := e.Run()
	if code != -1 {
		t.Errorf("EOF should read -1, got %d", code)
	}
}

func TestEngineUnresolvedExternalFailsOnlyWhenCalled(t *testing.T) {
	m := buildModule(t, `module "t"
declare @mystery fn() i32
func @main fn() i32 regs 1 {
entry:
  ret i32 0
}
`)
	e, err := NewEngine(m, Config{})
	if err != nil {
		t.Fatalf("declaring an unknown external must not fail engine construction: %v", err)
	}
	if code, err := e.Run(); err != nil || code != 0 {
		t.Errorf("got (%d, %v)", code, err)
	}
	m2 := buildModule(t, `module "t"
declare @mystery fn() i32
func @main fn() i32 regs 1 {
entry:
  %r0 = call i32 &mystery() fixed 0
  ret i32 %r0
}
`)
	e2, _ := NewEngine(m2, Config{})
	if _, err := e2.Run(); err == nil {
		t.Error("calling an unresolved external must fail")
	}
}

func TestBoxVarArgSizes(t *testing.T) {
	m := buildModule(t, `module "t"
func @main fn() i32 regs 1 { entry: ret i32 0 }
`)
	e, _ := NewEngine(m, Config{})
	cell := e.BoxVarArg(ir.I32, IntValue(42), 0)
	if cell.Obj.Size() != 4 {
		t.Errorf("i32 cell size = %d", cell.Obj.Size())
	}
	if _, be := cell.Obj.LoadInt(0, 8, Read); be == nil {
		t.Error("reading an i32 cell with 8 bytes must be out of bounds (Fig. 12)")
	}
	fcell := e.BoxVarArg(ir.F64, FloatValue(2.5), 1)
	v, be := fcell.Obj.LoadFloat(0, 64, Read)
	if be != nil || v != 2.5 {
		t.Errorf("f64 cell: %v %v", v, be)
	}
	pcell := e.BoxVarArg(ir.BytePtr, PtrValue(cell), 2)
	p, be := pcell.Obj.LoadPtr(0, Read)
	if be != nil || p.Obj != cell.Obj {
		t.Errorf("ptr cell round trip failed")
	}
}
