package sim

import (
	"strconv"
	"testing"
)

// BenchmarkEventQueue measures the event queue alone, through push and pop
// only, on the two shapes the engine produces:
//
//   - hold/k=K: K live events, then pop one and push one at now + U(0,1]
//     (the classic hold model; every delay lies in (0, τ] as in the
//     engine), 10⁶ pop/push pairs per op;
//   - burst-drain/4e6: push 4·10⁶ events at U(0,1], then pop them all —
//     the shape of a dense flood with every node awake.
//
// ns/event divides the op time by the events it pops. Every event carries
// a message, as deliveries do.
func BenchmarkEventQueue(b *testing.B) {
	delay := uniformDelay
	var msg Message = testMsg{bits: 8}
	deliver := func(at Time, seq int64) event {
		return event{at: at, seq: seq, kind: evDeliver, node: int(seq & 1023),
			d: Delivery{Msg: msg, Port: 1, SenderPort: 2, From: -1}}
	}

	const holdSteps = 1_000_000
	for _, k := range []int{1_000, 100_000, 4_000_000} {
		b.Run("hold/k="+strconv.Itoa(k), func(b *testing.B) {
			var h eventHeap
			var seq int64
			for ; seq < int64(k); seq++ {
				h.push(deliver(delay(seq), seq))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < holdSteps; j++ {
					ev := h.pop()
					h.push(deliver(ev.at+delay(seq), seq))
					seq++
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*holdSteps), "ns/event")
		})
	}

	const burst = 4_000_000
	b.Run("burst-drain/4e6", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var h eventHeap
			for seq := int64(0); seq < burst; seq++ {
				h.push(deliver(delay(seq), seq))
			}
			for h.len() > 0 {
				h.pop()
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/event")
	})
}

// uniformDelay is a distinct U(0,1] value per sequence number, cheap
// enough (one splitmix64 step) to stay out of a measurement.
func uniformDelay(seq int64) Time {
	return Time(float64(splitmix64(uint64(seq))>>11+1) / (1 << 53))
}
