package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"riseandshine/internal/graph"
)

// keys returns the table's keys in ascending order.
func (m *idMap[V]) keys() []graph.NodeID {
	var ks []graph.NodeID
	m.each(func(id graph.NodeID, _ V) { ks = append(ks, id) })
	slices.Sort(ks)
	return ks
}

// displacement returns how many slots past its home slot id sits.
func (m *idMap[V]) displacement(id graph.NodeID) int {
	i, _ := m.find(id)
	home := int((uint64(id) * idHashMul) >> m.shift)
	return (i - home) & (len(m.slots) - 1)
}

// idMapOp is one step of a differential run: put, ref or has on key.
type idMapOp struct {
	kind byte // 0 put, 1 ref, 2 has
	key  graph.NodeID
	val  int
}

// checkIDMapOps applies ops to an idMap and a Go map side by side and
// fails at the first difference in a result, the entry count, a stored
// value or the key set.
func checkIDMapOps(t *testing.T, m *idMap[int], ops []idMapOp) {
	t.Helper()
	want := make(map[graph.NodeID]int)
	for i, op := range ops {
		_, present := want[op.key]
		switch op.kind % 3 {
		case 0:
			m.put(op.key, op.val)
			want[op.key] = op.val
		case 1:
			p, found := m.ref(op.key)
			if found != present {
				t.Fatalf("op %d: ref(%d) found %v, want %v", i, op.key, found, present)
			}
			if *p != want[op.key] {
				t.Fatalf("op %d: ref(%d) = %d, want %d", i, op.key, *p, want[op.key])
			}
			*p += op.val
			want[op.key] += op.val
		case 2:
			if got := m.has(op.key); got != present {
				t.Fatalf("op %d: has(%d) = %v, want %v", i, op.key, got, present)
			}
		}
		if m.n != len(want) {
			t.Fatalf("op %d: %d entries, want %d", i, m.n, len(want))
		}
		if 2*m.n > len(m.slots) {
			t.Fatalf("op %d: %d entries in %d slots, more than half full", i, m.n, len(m.slots))
		}
	}
	for id, v := range want {
		if got, ok := m.get(id); !ok || got != v {
			t.Fatalf("get(%d) = %d, %v; want %d, true", id, got, ok, v)
		}
	}
	wantKeys := make([]graph.NodeID, 0, len(want))
	for id := range want {
		wantKeys = append(wantKeys, id)
	}
	slices.Sort(wantKeys)
	if got := m.keys(); !slices.Equal(got, wantKeys) {
		t.Fatalf("keys %v, want %v", got, wantKeys)
	}
}

// idMapKeyPool holds the IDs a differential run draws from: small
// non-negative and negative IDs, the int64 extremes, and IDs that share
// their low 32 bits.
func idMapKeyPool() []graph.NodeID {
	pool := []graph.NodeID{0, -1, 1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	for k := graph.NodeID(-40); k <= 40; k++ {
		pool = append(pool, k, k<<32, k<<32|7, k*(1<<33)-(1<<62))
	}
	return pool
}

// TestIDMapMatchesMap runs random put/ref/has sequences against a Go map,
// from an empty table and from one sized up front, with keys drawn from
// idMapKeyPool and from all of int64.
func TestIDMapMatchesMap(t *testing.T) {
	pool := idMapKeyPool()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		ops := make([]idMapOp, rng.Intn(600))
		for i := range ops {
			key := pool[rng.Intn(len(pool))]
			if rng.Intn(4) == 0 {
				key = graph.NodeID(rng.Uint64())
			}
			ops[i] = idMapOp{kind: byte(rng.Intn(3)), key: key, val: rng.Intn(1000)}
		}
		var m idMap[int]
		if trial%2 == 1 {
			m = newIDMap[int](rng.Intn(300))
		}
		checkIDMapOps(t, &m, ops)
	}
}

// TestIDMapSpreadsHighBits files IDs that differ only above bit 31, or
// only above bit 52, and checks that no entry sits far from its home slot:
// a hash of the low bits would put every one of them in one probe run.
func TestIDMapSpreadsHighBits(t *testing.T) {
	for _, shift := range []uint{32, 33, 52} {
		m := newIDMap[struct{}](1000)
		for k := graph.NodeID(0); k < 1000; k++ {
			m.put(k<<shift-(1<<62), struct{}{})
		}
		worst := 0
		for k := graph.NodeID(0); k < 1000; k++ {
			worst = max(worst, m.displacement(k<<shift-(1<<62)))
		}
		if worst > 32 {
			t.Errorf("IDs k·2^%d − 2^62: an entry sits %d slots past its home", shift, worst)
		}
	}
}

// FuzzIDMap decodes its input as put/ref/has steps and checks them
// against a Go map. A step is a kind byte, then an 8-byte key, or, when
// the kind byte's top bit is set, one byte that picks a key from
// idMapKeyPool.
func FuzzIDMap(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64([]byte{1}, 1<<63))
	seed := []byte{}
	for k := uint64(0); k < 40; k++ {
		seed = binary.LittleEndian.AppendUint64(append(seed, byte(k%3)), k<<32)
		seed = append(seed, 0x80|byte(k%3), byte(7*k))
	}
	f.Add(seed)
	pool := idMapKeyPool()
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []idMapOp
		for len(data) > 0 {
			b := data[0]
			data = data[1:]
			op := idMapOp{kind: b & 3, val: int(b>>2) & 0x1f}
			switch {
			case b&0x80 != 0 && len(data) >= 1:
				op.key = pool[int(data[0])%len(pool)]
				data = data[1:]
			case len(data) >= 8:
				op.key = graph.NodeID(binary.LittleEndian.Uint64(data))
				data = data[8:]
			}
			ops = append(ops, op)
		}
		var m idMap[int]
		checkIDMapOps(t, &m, ops)
	})
}
