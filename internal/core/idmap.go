package core

import (
	"math/bits"

	"riseandshine/internal/graph"
)

// idMap is the simulator-side table from node IDs to values that the KT1
// handlers keep: open addressing with linear probing over a power-of-two
// slot array, a multiplicative hash of all 64 bits of the ID, doubling
// when half full. Any int64 is a valid ID (Graph.SetIDs), so no key value
// can mark a slot empty; a bitset does. The zero value is an empty table.
type idMap[V any] struct {
	slots []idSlot[V]
	full  []uint64 // bit i of word i/64: slots[i] holds an entry
	n     int
	shift uint8 // 64 − log2(len(slots))
}

// idSlot puts the value first, so a zero-size V adds no padding.
type idSlot[V any] struct {
	val V
	id  graph.NodeID
}

// idHashMul is ⌊2⁶⁴/φ⌋, odd: the top bits of id·idHashMul depend on every
// bit of id, so IDs that differ only in their high bits (k·2³², say)
// still spread over the table.
const idHashMul = 0x9e3779b97f4a7c15

// minIDSlots is the smallest table a first insertion allocates.
const minIDSlots = 8

// newIDMap returns a table with room for n entries before it grows.
func newIDMap[V any](n int) idMap[V] {
	size := minIDSlots
	for size < 2*n {
		size *= 2
	}
	var m idMap[V]
	m.alloc(size)
	return m
}

func (m *idMap[V]) alloc(size int) {
	m.slots = make([]idSlot[V], size)
	m.full = make([]uint64, (size+63)/64)
	m.shift = uint8(64 - bits.TrailingZeros(uint(size)))
}

// find returns the slot that holds id, or the empty slot where id would
// go, and whether id is present. The table must have a slot.
func (m *idMap[V]) find(id graph.NodeID) (int, bool) {
	mask := len(m.slots) - 1
	for i := int((uint64(id) * idHashMul) >> m.shift); ; i = (i + 1) & mask {
		if m.full[i>>6]&(1<<(i&63)) == 0 {
			return i, false
		}
		if m.slots[i].id == id {
			return i, true
		}
	}
}

// has reports whether id is present.
func (m *idMap[V]) has(id graph.NodeID) bool {
	if m.n == 0 {
		return false
	}
	_, ok := m.find(id)
	return ok
}

// get returns id's value and whether id is present.
func (m *idMap[V]) get(id graph.NodeID) (V, bool) {
	if m.n == 0 {
		var zero V
		return zero, false
	}
	i, ok := m.find(id)
	return m.slots[i].val, ok
}

// ref returns a pointer to id's value, inserting the zero value first if
// id is absent, and whether id was present. The pointer is valid until the
// next insertion.
func (m *idMap[V]) ref(id graph.NodeID) (*V, bool) {
	if 2*(m.n+1) > len(m.slots) {
		m.grow()
	}
	i, ok := m.find(id)
	if !ok {
		m.full[i>>6] |= 1 << (i & 63)
		m.slots[i].id = id
		m.n++
	}
	return &m.slots[i].val, ok
}

// put sets id's value.
func (m *idMap[V]) put(id graph.NodeID, v V) {
	p, _ := m.ref(id)
	*p = v
}

// grow doubles the table and files every entry again.
func (m *idMap[V]) grow() {
	old, oldFull := m.slots, m.full
	m.alloc(max(minIDSlots, 2*len(old)))
	for w, word := range oldFull {
		for ; word != 0; word &= word - 1 {
			s := old[w<<6|bits.TrailingZeros64(word)]
			i, _ := m.find(s.id)
			m.full[i>>6] |= 1 << (i & 63)
			m.slots[i] = s
		}
	}
}

// each calls f with every entry, in slot order.
func (m *idMap[V]) each(f func(id graph.NodeID, v V)) {
	for w, word := range m.full {
		for ; word != 0; word &= word - 1 {
			s := &m.slots[w<<6|bits.TrailingZeros64(word)]
			f(s.id, s.val)
		}
	}
}
