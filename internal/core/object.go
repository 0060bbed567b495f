package core

import (
	"encoding/binary"
	"math"

	"repro/internal/diag"
	"repro/internal/ir"
	"repro/internal/memdesc"
)

// Object is a managed allocation. Its storage is a Go byte slice plus a
// pointer-slot table; the engine never hands out raw addresses, only
// Pointer values referencing an Object.
//
// This is the Go rendering of the paper's ManagedObject hierarchy (Fig. 5).
// Where the Java implementation uses one wrapper class per element type
// (I32Array, AddressArray, ...) and infers heap allocation types on first
// access (§3.3), this implementation backs every object with bytes and keeps
// an exact table of which 8-byte slots currently hold pointers. The
// observable guarantees are identical:
//
//   - spatial safety: every access is bounds-checked against the object,
//   - temporal safety: free() drops the storage, so any later access fails,
//   - pointer integrity: a pointer can only be read from a slot a pointer
//     was stored to; ints reinterpreted as pointers are a type violation,
//   - relaxed data typing: ints/floats may reinterpret each other's bytes
//     (the paper's double-in-long-array relaxation comes for free).
type Object struct {
	// Data is the live storage; nil once freed, so the allocation is
	// reclaimable by Go's collector exactly as in the paper's Fig. 7.
	Data []byte
	// Ptrs maps byte offsets to pointer values stored at those offsets.
	// nil for objects that never held a pointer.
	Ptrs map[int64]Pointer

	Mem   MemKind
	Name  string // allocation-site variable name (diagnostics)
	Freed bool
	// Returned marks a stack object invalidated by its frame popping
	// (use-after-return detection).
	Returned bool
	ID       int64 // allocation order; gives pointers a stable total order

	// Ty is the allocation's IR type if known (diagnostics only).
	Ty ir.Type

	// Desc is the allocation's effective (dynamic) type descriptor: stamped
	// at the allocation site for stack objects, globals, and vararg cells,
	// and adopted at the first checked pointer cast for heap objects. nil
	// when the front end declared nothing.
	Desc *memdesc.Desc
	// Strict excludes the object from every tier-2 Direct* fast path, the
	// same way pointer-carrying objects are excluded: accesses must take the
	// generic checked path so the type-identity checks (union kinds, vararg
	// classes) always run. Set for vararg cells and union-carrying objects.
	Strict bool
	// unionKinds records, per byte offset inside union storage, the scalar
	// class last stored there — the state a bad-union-read check compares
	// against. nil for objects without union storage.
	unionKinds map[int64]unionRec

	// AllocStack is the guest call stack at the allocation site and
	// FreeStack the stack at the free (or frame pop) that retired the
	// object. Both are persistent diag.Stack values — recording them is one
	// pointer copy — and both flow into every BugError that blames this
	// object, giving reports their "allocated by / freed by" backtraces.
	AllocStack diag.Stack
	FreeStack  diag.Stack

	// size is kept separately from len(Data) so freed objects still report
	// their allocated size in error messages.
	size int64
}

// NewObject allocates a managed object of the given size.
func NewObject(size int64, mem MemKind, name string, id int64) *Object {
	return &Object{Data: make([]byte, size), Mem: mem, Name: name, ID: id, size: size}
}

// Size returns the object's size in bytes (its allocated size even after
// being freed, for error messages).
func (o *Object) Size() int64 { return o.size }

// Pointer is the paper's Address class: a managed reference plus a byte
// offset for pointer arithmetic (Fig. 6). The zero Pointer is NULL.
// Function pointers have Fn >= 0 and no object.
type Pointer struct {
	Obj *Object
	Off int64
	Fn  int // function index + 1; 0 means "not a function pointer"
}

// IsNull reports whether p is the null pointer.
func (p Pointer) IsNull() bool { return p.Obj == nil && p.Fn == 0 }

// IsFunc reports whether p designates a function.
func (p Pointer) IsFunc() bool { return p.Fn != 0 }

// FuncIndex returns the function index for a function pointer.
func (p Pointer) FuncIndex() int { return p.Fn - 1 }

// FuncPointer builds a pointer to the function with the given module index.
func FuncPointer(idx int) Pointer { return Pointer{Fn: idx + 1} }

// Add returns p advanced by delta bytes (pointer arithmetic never traps; only
// dereferencing does, per C and per the paper).
func (p Pointer) Add(delta int64) Pointer {
	p.Off += delta
	return p
}

// OrderKey gives pointers a deterministic total order so that programs
// sorting pointers (qsort) behave reproducibly. Comparing pointers into
// different objects is undefined in C; the engine makes it deterministic
// rather than an error, matching the paper's relaxations.
func (p Pointer) OrderKey() (int64, int64) {
	if p.Obj == nil {
		return 0, p.Off
	}
	return p.Obj.ID, p.Off
}

// Equal reports pointer equality (same object and offset, or both NULL).
func (p Pointer) Equal(q Pointer) bool {
	return p.Obj == q.Obj && p.Off == q.Off && p.Fn == q.Fn
}

// unionRec is one recorded scalar store into union storage.
type unionRec struct {
	size int64
	kind memdesc.Kind
}

// AdoptDesc stamps a descriptor on a previously type-less object (the
// malloc-then-cast pattern: the first checked cast determines the heap
// block's effective type, mirroring the paper's §3.3 type inference on
// first access). Union-carrying descriptors make the object Strict.
func (o *Object) AdoptDesc(d *memdesc.Desc) {
	if o.Desc != nil || d == nil {
		return
	}
	o.Desc = d
	if o.Ty == nil {
		o.Ty = d.Ty
	}
	if d.HasUnions() {
		o.Strict = true
	}
}

// DescCType returns the effective C type name, or "" when untyped.
func (o *Object) DescCType() string {
	if o.Desc != nil {
		return o.Desc.CType
	}
	return ""
}

// unionSpanAt reports whether [off, off+size) lies inside union storage of
// the object's effective type. Descriptors describe one element; objects
// sized a multiple of the element (arrays, counted allocas) check the
// element-relative offset.
func (o *Object) unionSpanAt(off, size int64) bool {
	d := o.Desc
	if d == nil || len(d.Unions) == 0 {
		return false
	}
	rel := off
	if d.Size > 0 && off >= d.Size {
		rel = off % d.Size
		if rel+size > d.Size { // straddles an element boundary
			return false
		}
	}
	_, ok := d.UnionAt(rel, size)
	return ok
}

// recordUnionKind notes that [off, off+size) inside union storage now holds
// a value of the given scalar class (replacing overlapping records).
func (o *Object) recordUnionKind(off, size int64, k memdesc.Kind) {
	o.clearUnionRecs(off, off+size)
	if o.unionKinds == nil {
		o.unionKinds = make(map[int64]unionRec, 4)
	}
	o.unionKinds[off] = unionRec{size: size, kind: k}
}

// clearUnionRecs drops records overlapping [lo, hi) — raw byte stores and
// block copies degrade union storage back to "unknown" (never a false
// positive from stale state).
func (o *Object) clearUnionRecs(lo, hi int64) {
	for off, r := range o.unionKinds {
		if off < hi && off+r.size > lo {
			delete(o.unionKinds, off)
		}
	}
}

// ClearUnionKinds is the exported form used by memcpy/memset-style builtins.
func (o *Object) ClearUnionKinds(lo, hi int64) {
	if o.unionKinds != nil {
		o.clearUnionRecs(lo, hi)
	}
}

// checkUnionRead reports a BadUnionRead when [off, off+size) reads union
// storage whose last store was the other scalar class. Single-byte reads are
// exempt (char-wise inspection of a union is normal C), as are reads that
// are not fully covered by one recorded store (raw reinterpretation of mixed
// bytes, which the relaxed model permits).
func (o *Object) checkUnionRead(off, size int64, k memdesc.Kind) *BugError {
	if o.unionKinds == nil || size <= 1 || (k != memdesc.Int && k != memdesc.Float) {
		return nil
	}
	for roff, r := range o.unionKinds {
		if roff <= off && off+size <= roff+r.size {
			if (r.kind == memdesc.Int || r.kind == memdesc.Float) && r.kind != k {
				return &BugError{
					Kind: BadUnionRead, Access: Read, Off: off, Size: size,
					ObjSize: o.size, Mem: o.Mem, Obj: o.Name,
					CType: o.DescCType(), Stored: r.kind.String(), Accessed: k.String(),
					AllocStack: o.AllocStack,
				}
			}
			return nil
		}
	}
	return nil
}

// noteTypedStore records the scalar class of a successful typed store when
// it lands wholly inside union storage. Single-byte stores are not
// classified (char-wise writes are raw bytes).
func (o *Object) noteTypedStore(off, size int64, k memdesc.Kind) {
	if size > 1 && o.Desc.HasUnions() && o.unionSpanAt(off, size) {
		o.recordUnionKind(off, size, k)
	}
}

// typedReadCheck runs the type-identity read checks for a Strict object:
// vararg cells compare the read's scalar class against the passed argument's;
// union carriers compare against the class last stored.
func (o *Object) typedReadCheck(off, size int64, k memdesc.Kind) *BugError {
	if o.Mem == VarargMem {
		if o.Desc == nil {
			return nil
		}
		sk := o.Desc.Kind
		if (sk == memdesc.Int || sk == memdesc.Float) && (k == memdesc.Int || k == memdesc.Float) && sk != k {
			return &BugError{
				Kind: VarargMismatch, Access: Read, Off: off, Size: size,
				ObjSize: o.size, Mem: o.Mem, Obj: o.Name,
				CType: o.Desc.CType, Stored: sk.String(), Accessed: k.String(),
				AllocStack: o.AllocStack,
			}
		}
		return nil
	}
	return o.checkUnionRead(off, size, k)
}

// access validates an access of `size` bytes at byte offset off and returns
// a BugError template when it is invalid. A nil return means the access is
// in bounds on a live object.
func (o *Object) access(off, size int64, acc AccessKind) *BugError {
	if o.Freed {
		kind := UseAfterFree
		if o.Returned {
			kind = UseAfterReturn
		}
		return &BugError{Kind: kind, Access: acc, Off: off, Size: size, ObjSize: o.size, Mem: o.Mem, Obj: o.Name,
			CType: o.DescCType(), AllocStack: o.AllocStack, FreeStack: o.FreeStack}
	}
	if off < 0 || off+size > int64(len(o.Data)) {
		return &BugError{Kind: OutOfBounds, Access: acc, Off: off, Size: size, ObjSize: o.size, Mem: o.Mem, Obj: o.Name,
			CType: o.DescCType(), AllocStack: o.AllocStack}
	}
	return nil
}

// overlapsPtr reports whether [off, off+size) overlaps a pointer slot, and
// the slot offset if so.
func (o *Object) overlapsPtr(off, size int64) (int64, bool) {
	if len(o.Ptrs) == 0 {
		return 0, false
	}
	// Pointer slots are 8 bytes; check the up-to-two candidate slots.
	base := (off / 8) * 8
	for s := base - 8; s < off+size; s += 8 {
		if _, ok := o.Ptrs[s]; ok && s+8 > off && s < off+size {
			return s, true
		}
	}
	return 0, false
}

// LoadInt reads a size-byte little-endian integer at off, sign-extended.
func (o *Object) LoadInt(off, size int64, acc AccessKind) (int64, *BugError) {
	if be := o.access(off, size, acc); be != nil {
		return 0, be
	}
	if _, bad := o.overlapsPtr(off, size); bad {
		// Reading pointer bytes as an integer would let the program forge
		// or leak addresses; the paper's model disallows it (§3.2).
		return 0, &BugError{Kind: TypeViolation, Access: acc, Off: off, Size: size, ObjSize: o.size, Mem: o.Mem, Obj: o.Name, AllocStack: o.AllocStack}
	}
	var v uint64
	for i := int64(0); i < size; i++ {
		v |= uint64(o.Data[off+i]) << (8 * uint(i))
	}
	// sign-extend to the canonical 64-bit register form
	shift := uint(64 - 8*size)
	return int64(v<<shift) >> shift, nil
}

// StoreInt writes the low size bytes of v at off.
func (o *Object) StoreInt(off, size int64, v int64, acc AccessKind) *BugError {
	if be := o.access(off, size, acc); be != nil {
		return be
	}
	if s, bad := o.overlapsPtr(off, size); bad {
		delete(o.Ptrs, s) // overwriting a pointer with ints kills the pointer
	}
	if o.unionKinds != nil {
		// Raw byte stores degrade overlapping union records to "unknown";
		// StoreTyped re-records for stores it can classify.
		o.clearUnionRecs(off, off+size)
	}
	for i := int64(0); i < size; i++ {
		o.Data[off+i] = byte(v >> (8 * uint(i)))
	}
	return nil
}

// LoadFloat reads a 4- or 8-byte float at off.
func (o *Object) LoadFloat(off int64, bits int, acc AccessKind) (float64, *BugError) {
	v, be := o.LoadInt(off, int64(bits/8), acc)
	if be != nil {
		return 0, be
	}
	if bits == 32 {
		return float64(math.Float32frombits(uint32(v))), nil
	}
	return math.Float64frombits(uint64(v)), nil
}

// StoreFloat writes a 4- or 8-byte float at off.
func (o *Object) StoreFloat(off int64, bits int, v float64, acc AccessKind) *BugError {
	if bits == 32 {
		return o.StoreInt(off, 4, int64(math.Float32bits(float32(v))), acc)
	}
	return o.StoreInt(off, 8, int64(math.Float64bits(v)), acc)
}

// LoadPtr reads a pointer at off. Reading 8 zero bytes yields NULL (so
// calloc'ed and zero-initialized memory reads as null pointers); reading
// bytes that were not stored as a pointer is a type violation.
func (o *Object) LoadPtr(off int64, acc AccessKind) (Pointer, *BugError) {
	if be := o.access(off, 8, acc); be != nil {
		return Pointer{}, be
	}
	if p, ok := o.Ptrs[off]; ok {
		return p, nil
	}
	if _, bad := o.overlapsPtr(off, 8); bad {
		return Pointer{}, &BugError{Kind: TypeViolation, Access: acc, Off: off, Size: 8, ObjSize: o.size, Mem: o.Mem, Obj: o.Name, AllocStack: o.AllocStack}
	}
	allZero := true
	for i := int64(0); i < 8; i++ {
		if o.Data[off+i] != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return Pointer{}, nil
	}
	return Pointer{}, &BugError{Kind: TypeViolation, Access: acc, Off: off, Size: 8, ObjSize: o.size, Mem: o.Mem, Obj: o.Name, AllocStack: o.AllocStack}
}

// StorePtr writes a pointer at off (must be within bounds; unaligned pointer
// slots are permitted but each slot is keyed by its exact offset).
func (o *Object) StorePtr(off int64, p Pointer, acc AccessKind) *BugError {
	if be := o.access(off, 8, acc); be != nil {
		return be
	}
	if s, bad := o.overlapsPtr(off, 8); bad && s != off {
		delete(o.Ptrs, s)
	}
	if o.unionKinds != nil {
		o.clearUnionRecs(off, off+8)
	}
	if p.IsNull() && p.Off == 0 {
		delete(o.Ptrs, off)
		for i := int64(0); i < 8; i++ {
			o.Data[off+i] = 0
		}
		return nil
	}
	// A null pointer with a nonzero offset (NULL+4 after pointer arithmetic on
	// a failed malloc) keeps its offset through the memory roundtrip, so a
	// later dereference reports the same effective offset whether the pointer
	// lived in memory (tier-0) or in a register (tier-1 after scalar
	// promotion). Such a pointer still compares equal to NULL only at Off 0.
	if o.Ptrs == nil {
		o.Ptrs = make(map[int64]Pointer, 4)
	}
	o.Ptrs[off] = p
	// The underlying bytes become an opaque non-zero marker so that
	// "all-zero means NULL" stays sound.
	binary.LittleEndian.PutUint64(o.Data[off:], 0xdeadbeefdeadbeef)
	return nil
}

// InvalidateReturned marks a stack object dead because its function
// returned; later accesses report a use-after-return (Returned
// distinguishes the message from a heap use-after-free).
func (o *Object) InvalidateReturned() {
	o.Data = nil
	o.Ptrs = nil
	o.Freed = true
	o.Returned = true
}

// FreeWith is Free plus a record of the free-site call stack, which later
// use-after-free / double-free reports print as their "freed by" backtrace.
func (o *Object) FreeWith(st diag.Stack) {
	o.FreeStack = st
	o.Free()
}

// Free releases a heap object (paper Fig. 7/8 semantics): the data reference
// is dropped so the garbage collector can reclaim the storage, and any later
// access reports a use-after-free.
func (o *Object) Free() {
	o.Data = nil
	o.Ptrs = nil
	o.Freed = true
}
