// Package nativemem simulates the machine memory model that the paper's
// baseline tools operate on: a flat, byte-addressable 64-bit address space
// with page-granular protection. There are no bounds, no types, and no
// object identities — an out-of-bounds access lands in whatever bytes are
// adjacent, and only touching an unmapped page traps (the SIGSEGV model).
// This is precisely the "native execution model" Safe Sulong abstracts from.
package nativemem

import "fmt"

// PageSize is the simulated page size (4 KiB, as on AMD64).
const PageSize = 4096

// Fault is a memory access violation: the simulated SIGSEGV.
type Fault struct {
	Addr  uint64
	Write bool
}

func (f *Fault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	return fmt.Sprintf("segmentation fault: invalid %s at address 0x%x", kind, f.Addr)
}

// Memory is a sparse paged address space with demand-paged backing: Map
// records that a page exists (a nil entry) but the 4 KiB backing store is
// materialized only on the first write, exactly as a kernel would serve an
// anonymous mapping from the shared zero page until a write faults. Reads
// of an untouched mapped page come from one immutable zero page, so the
// observable bytes are identical to eager zero-filling while mapping an
// 8 MiB stack costs 2048 map inserts instead of 8 MiB of allocate-and-zero
// per machine — the dominant construction cost of the native-model engines.
type Memory struct {
	pages map[uint64][]byte
}

// zeroPage backs reads of mapped-but-never-written pages. It must never be
// handed out on a write path.
var zeroPage [PageSize]byte

// New returns an empty address space (everything unmapped; address 0 traps).
func New() *Memory {
	return &Memory{pages: make(map[uint64][]byte, 64)}
}

// Map makes [addr, addr+size) accessible, zero-filled. Partial pages round
// out to full pages, as mmap would. Backing is allocated lazily on first
// write.
func (m *Memory) Map(addr, size uint64) {
	first := addr / PageSize
	last := (addr + size - 1) / PageSize
	for p := first; p <= last; p++ {
		if _, ok := m.pages[p]; !ok {
			m.pages[p] = nil
		}
	}
}

// Unmap removes pages fully covered by [addr, addr+size).
func (m *Memory) Unmap(addr, size uint64) {
	first := (addr + PageSize - 1) / PageSize
	last := (addr + size) / PageSize
	for p := first; p < last; p++ {
		delete(m.pages, p)
	}
}

// Mapped reports whether every byte of [addr, addr+size) is accessible.
func (m *Memory) Mapped(addr uint64, size int64) bool {
	if size <= 0 {
		size = 1
	}
	first := addr / PageSize
	last := (addr + uint64(size) - 1) / PageSize
	for p := first; p <= last; p++ {
		if _, ok := m.pages[p]; !ok {
			return false
		}
	}
	return true
}

// rdPage returns a readable view of the page backing addr: the real backing
// when the page has been written, the shared zero page when it is mapped but
// untouched, nil when unmapped.
func (m *Memory) rdPage(addr uint64) []byte {
	pg, ok := m.pages[addr/PageSize]
	if !ok {
		return nil
	}
	if pg == nil {
		return zeroPage[:]
	}
	return pg
}

// wrPage returns the writable backing of the page at addr, materializing it
// on first write; nil when unmapped.
func (m *Memory) wrPage(addr uint64) []byte {
	p := addr / PageSize
	pg, ok := m.pages[p]
	if !ok {
		return nil
	}
	if pg == nil {
		pg = make([]byte, PageSize)
		m.pages[p] = pg
	}
	return pg
}

// Load reads size bytes (1, 2, 4, or 8) little-endian at addr. The value is
// returned zero-extended; callers sign-extend per their type.
func (m *Memory) Load(addr uint64, size int64) (uint64, *Fault) {
	pg := m.rdPage(addr)
	if pg == nil {
		return 0, &Fault{Addr: addr}
	}
	off := addr % PageSize
	if off+uint64(size) <= PageSize {
		var v uint64
		for i := int64(0); i < size; i++ {
			v |= uint64(pg[off+uint64(i)]) << (8 * uint(i))
		}
		return v, nil
	}
	// Access straddles a page boundary.
	var v uint64
	for i := int64(0); i < size; i++ {
		b, f := m.LoadByte(addr + uint64(i))
		if f != nil {
			return 0, f
		}
		v |= uint64(b) << (8 * uint(i))
	}
	return v, nil
}

// Store writes size bytes little-endian at addr.
func (m *Memory) Store(addr uint64, size int64, v uint64) *Fault {
	pg := m.wrPage(addr)
	if pg == nil {
		return &Fault{Addr: addr, Write: true}
	}
	off := addr % PageSize
	if off+uint64(size) <= PageSize {
		for i := int64(0); i < size; i++ {
			pg[off+uint64(i)] = byte(v >> (8 * uint(i)))
		}
		return nil
	}
	for i := int64(0); i < size; i++ {
		if f := m.StoreByte(addr+uint64(i), byte(v>>(8*uint(i)))); f != nil {
			return f
		}
	}
	return nil
}

// LoadByte reads one byte.
func (m *Memory) LoadByte(addr uint64) (byte, *Fault) {
	pg := m.rdPage(addr)
	if pg == nil {
		return 0, &Fault{Addr: addr}
	}
	return pg[addr%PageSize], nil
}

// StoreByte writes one byte.
func (m *Memory) StoreByte(addr uint64, b byte) *Fault {
	pg := m.wrPage(addr)
	if pg == nil {
		return &Fault{Addr: addr, Write: true}
	}
	pg[addr%PageSize] = b
	return nil
}

// ReadBytes copies n bytes out of memory (for I/O and diagnostics).
func (m *Memory) ReadBytes(addr uint64, n int64) ([]byte, *Fault) {
	out := make([]byte, n)
	for i := int64(0); i < n; i++ {
		b, f := m.LoadByte(addr + uint64(i))
		if f != nil {
			return nil, f
		}
		out[i] = b
	}
	return out, nil
}

// WriteBytes copies a byte slice into memory.
func (m *Memory) WriteBytes(addr uint64, data []byte) *Fault {
	for i, b := range data {
		if f := m.StoreByte(addr+uint64(i), b); f != nil {
			return f
		}
	}
	return nil
}

// CString reads a NUL-terminated string (bounded by max).
func (m *Memory) CString(addr uint64, max int64) (string, *Fault) {
	var buf []byte
	for i := int64(0); i < max; i++ {
		b, f := m.LoadByte(addr + uint64(i))
		if f != nil {
			return "", f
		}
		if b == 0 {
			break
		}
		buf = append(buf, b)
	}
	return string(buf), nil
}
