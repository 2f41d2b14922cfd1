package uarch

import "encoding/binary"

// Memory is a sparse flat byte-addressed memory with a privileged range.
// Loads from the privileged range by the (always user-mode) cores raise an
// access fault; the data is still returned to the pipeline, modelling the
// lazy-exception forwarding Meltdown-style attacks exploit (paper §7.3).
type Memory struct {
	pages map[uint64][]byte // 4 KiB pages
	// lastKey and lastPage cache the most recently used page. Pages are
	// never dropped (Reset zeroes them in place), so the cache never goes
	// stale.
	lastKey   uint64
	lastPage  []byte
	privBase  uint64
	privLimit uint64
}

const pageBytes = 4096

// NewMemory creates an empty memory with no privileged range.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64][]byte)}
}

// SetPrivRange marks [base, limit) as privileged.
func (m *Memory) SetPrivRange(base, limit uint64) {
	m.privBase, m.privLimit = base, limit
}

// Privileged reports whether an address lies in the privileged range.
func (m *Memory) Privileged(addr uint64) bool {
	return addr >= m.privBase && addr < m.privLimit
}

// page returns the page holding addr. An untouched page is created when
// create is set and reported as nil otherwise.
func (m *Memory) page(addr uint64, create bool) []byte {
	key := addr / pageBytes
	if m.lastPage != nil && key == m.lastKey {
		return m.lastPage
	}
	p, ok := m.pages[key]
	if !ok {
		if !create {
			return nil
		}
		p = make([]byte, pageBytes)
		m.pages[key] = p
	}
	m.lastKey, m.lastPage = key, p
	return p
}

// LoadByte returns the byte at addr (0 for untouched memory).
func (m *Memory) LoadByte(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr%pageBytes]
}

// StoreByte stores one byte.
func (m *Memory) StoreByte(addr uint64, v byte) {
	m.page(addr, true)[addr%pageBytes] = v
}

// Read reads n little-endian bytes as a uint64 (n <= 8). Accesses may span
// pages; one that does not costs a single page lookup.
func (m *Memory) Read(addr uint64, n int) uint64 {
	var buf [8]byte
	if off := addr % pageBytes; off+uint64(n) <= pageBytes {
		if p := m.page(addr, false); p != nil {
			copy(buf[:n], p[off:])
		}
	} else {
		for i := 0; i < n; i++ {
			buf[i] = m.LoadByte(addr + uint64(i))
		}
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// Write stores the low n bytes of v little-endian at addr.
func (m *Memory) Write(addr uint64, v uint64, n int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	if off := addr % pageBytes; off+uint64(n) <= pageBytes {
		copy(m.page(addr, true)[off:], buf[:n])
		return
	}
	for i := 0; i < n; i++ {
		m.StoreByte(addr+uint64(i), buf[i])
	}
}

// WriteBytes copies a byte slice into memory.
func (m *Memory) WriteBytes(addr uint64, data []byte) {
	for i, b := range data {
		m.StoreByte(addr+uint64(i), b)
	}
}

// Reset drops all contents but keeps the privileged range. Allocated pages
// are zeroed in place and kept resident, so re-running a similarly shaped
// program touches no new memory.
func (m *Memory) Reset() {
	for _, p := range m.pages { //sonar:nondeterministic-ok page zeroing is order-insensitive
		clear(p)
	}
}
