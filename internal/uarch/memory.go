package uarch

import "encoding/binary"

// Memory is a sparse flat byte-addressed memory with a privileged range.
// Loads from the privileged range by the (always user-mode) cores raise an
// access fault; the data is still returned to the pipeline, modelling the
// lazy-exception forwarding Meltdown-style attacks exploit (paper §7.3).
type Memory struct {
	pages map[uint64]*memPage // 4 KiB pages
	// lastKey and last cache the most recently used page. Pages are never
	// dropped (Reset zeroes them in place), so the cache never goes stale.
	lastKey uint64
	last    *memPage
	// written lists the pages written since the last Reset, in first-write
	// order; every other page is all zero.
	written   []*memPage
	privBase  uint64
	privLimit uint64
	// watchLo..watchHi is the watched byte range (see Watch); watchHit
	// records an access to it.
	watchLo, watchHi uint64
	watchHit         bool
}

const pageBytes = 4096

// memPage is one resident page and whether it is on Memory.written.
type memPage struct {
	data    [pageBytes]byte
	written bool
}

// NewMemory creates an empty memory with no privileged range.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*memPage)}
}

// SetPrivRange marks [base, limit) as privileged.
func (m *Memory) SetPrivRange(base, limit uint64) {
	m.privBase, m.privLimit = base, limit
}

// PrivRange returns the privileged range [base, limit).
func (m *Memory) PrivRange() (base, limit uint64) { return m.privBase, m.privLimit }

// Privileged reports whether an address lies in the privileged range.
func (m *Memory) Privileged(addr uint64) bool {
	return addr >= m.privBase && addr < m.privLimit
}

// Watch arms a watch on the n bytes at addr and clears its hit flag: any
// later read or write overlapping them sets WatchHit.
func (m *Memory) Watch(addr uint64, n int) {
	m.watchLo, m.watchHi, m.watchHit = addr, addr+uint64(n), false
}

// WatchHit reports whether a read or write touched the watched bytes since
// Watch armed them.
func (m *Memory) WatchHit() bool { return m.watchHit }

// observe records an access to [addr, addr+n) against the watch.
func (m *Memory) observe(addr uint64, n int) {
	if addr < m.watchHi && addr+uint64(n) > m.watchLo {
		m.watchHit = true
	}
}

// page returns the page holding addr. An untouched page is created when
// create is set and reported as nil otherwise.
func (m *Memory) page(addr uint64, create bool) *memPage {
	key := addr / pageBytes
	if m.last != nil && key == m.lastKey {
		return m.last
	}
	p, ok := m.pages[key]
	if !ok {
		if !create {
			return nil
		}
		p = new(memPage)
		m.pages[key] = p
	}
	m.lastKey, m.last = key, p
	return p
}

// writable returns the page holding addr for a write, listing it written.
func (m *Memory) writable(addr uint64) *memPage {
	p := m.page(addr, true)
	if !p.written {
		p.written = true
		m.written = append(m.written, p)
	}
	return p
}

// LoadByte returns the byte at addr (0 for untouched memory).
func (m *Memory) LoadByte(addr uint64) byte {
	m.observe(addr, 1)
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p.data[addr%pageBytes]
}

// StoreByte stores one byte.
func (m *Memory) StoreByte(addr uint64, v byte) {
	m.observe(addr, 1)
	m.writable(addr).data[addr%pageBytes] = v
}

// Read reads n little-endian bytes as a uint64 (n <= 8). Accesses may span
// pages; one that does not costs a single page lookup.
func (m *Memory) Read(addr uint64, n int) uint64 {
	var buf [8]byte
	if off := addr % pageBytes; off+uint64(n) <= pageBytes {
		m.observe(addr, n)
		if p := m.page(addr, false); p != nil {
			copy(buf[:n], p.data[off:])
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
		m.observe(addr, n)
		copy(m.writable(addr).data[off:], buf[:n])
		return
	}
	for i := 0; i < n; i++ {
		m.StoreByte(addr+uint64(i), buf[i])
	}
}

// WriteBytes copies a byte slice into memory.
func (m *Memory) WriteBytes(addr uint64, data []byte) {
	for len(data) > 0 {
		n := copy(m.writable(addr).data[addr%pageBytes:], data)
		m.observe(addr, n)
		addr, data = addr+uint64(n), data[n:]
	}
}

// Reset drops all contents but keeps the privileged range. The pages
// written since the last Reset are zeroed in place and kept resident, so
// re-running a similarly shaped program touches no new memory.
//
//sonar:alloc-free
func (m *Memory) Reset() {
	for _, p := range m.written {
		clear(p.data[:])
		p.written = false
	}
	m.written = m.written[:0]
}
