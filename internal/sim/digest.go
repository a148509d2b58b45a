package sim

import (
	"fmt"
	"math"
)

// FNV-1a constants for transcript digesting.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// digestDelivery folds one delivery into a node's transcript digest.
func digestDelivery(h uint64, at Time, d Delivery) uint64 {
	h = fnvUint64(h, math.Float64bits(float64(at)))
	return digestDeliveryContent2(h, d)
}

// digestDeliveryContent hashes one delivery without its time — the view
// that compares runs whose delivery times differ.
func digestDeliveryContent(d Delivery) uint64 {
	return digestDeliveryContent2(fnvOffset, d)
}

// CombineDigests folds a slice of per-node transcript digests, in node
// order, into a single FNV-1a value — one line that two runs (different
// hosts, worker counts, or engines) can diff.
func CombineDigests(digests []uint64) uint64 {
	h := fnvOffset
	for _, d := range digests {
		h = fnvUint64(h, d)
	}
	return h
}

func digestDeliveryContent2(h uint64, d Delivery) uint64 {
	h = fnvUint64(h, uint64(d.Port))
	h = fnvUint64(h, uint64(d.SenderPort))
	h = fnvUint64(h, uint64(d.From))
	return digestMessage(h, d.Msg)
}

// digestMessage folds a payload into h through its Go-syntax
// representation, which is stable for the value-type messages the
// algorithms use.
func digestMessage(h uint64, m Message) uint64 {
	return fnvString(h, fmt.Sprintf("%#v", m))
}
