package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"

	"riseandshine/internal/sim"
)

// defaultSeed is the seed whose fingerprints are committed in expect.json.
// It is also the default of cmd/table1 and cmd/lowerbound, so the table1
// workload at this seed runs exactly the cells `table1 -workers 1` runs.
const defaultSeed = 1

//go:embed expect.json
var expectJSON []byte

// expectation is the committed expect.json: per workload, the fingerprint
// of every cell of a pass at Seed.
type expectation struct {
	Seed         int64                        `json:"seed"`
	Fingerprints map[string]map[string]string `json:"fingerprints"`
}

// expected returns the committed fingerprints of a workload at seed, or
// nil when none are committed for that seed (only the seed-free
// invariants are checked then).
func expected(workload string, seed int64) (map[string]string, error) {
	var e expectation
	if err := json.Unmarshal(expectJSON, &e); err != nil {
		return nil, fmt.Errorf("expect.json: %w", err)
	}
	if e.Seed != seed {
		return nil, nil
	}
	return e.Fingerprints[workload], nil
}

// fingerprint hashes everything a Result says about the execution — the
// counters, Span, WakeSpan, AwakeTime and the per-node WakeAt,
// AdversaryWoken, SentBy, ReceivedBy and PortsUsed — but not Mem, which
// describes the engine's scratch rather than the run.
func fingerprint(r *sim.Result) uint64 {
	h := fnv.New64a()
	var buf []byte
	u := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f := func(v float64) { u(math.Float64bits(v)) }
	b := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	buf = append(buf, r.Algorithm...)
	for _, v := range []int{r.N, r.M, r.AwakeCount, r.Messages, r.MaxMessageBits, r.CongestViolations, r.Rounds, r.AdviceMaxBits, r.Events} {
		u(uint64(v))
	}
	u(uint64(r.MessageBits))
	u(uint64(r.AdviceTotalBits))
	b(r.AllAwake)
	f(float64(r.Span))
	f(float64(r.WakeSpan))
	f(r.AwakeTime)
	h.Write(buf)
	for _, t := range r.WakeAt {
		buf = buf[:0]
		f(float64(t))
		h.Write(buf)
	}
	for _, ints := range [][]int{r.SentBy, r.ReceivedBy, r.PortsUsed} {
		buf = buf[:0]
		u(uint64(len(ints)))
		for _, v := range ints {
			u(uint64(v))
		}
		h.Write(buf)
	}
	buf = buf[:0]
	for _, v := range r.AdversaryWoken {
		b(v)
	}
	h.Write(buf)
	return h.Sum64()
}

// The output check's failure counters, as the per-layer metrics name them.
const (
	failError       = "fail.error"       // the run returned an error
	failAsleep      = "fail.asleep"      // some node never woke
	failCongest     = "fail.congest"     // a CONGEST row exceeded the bit limit
	failUnsolved    = "fail.unsolved"    // a Theorem 2 instance missed a needle
	failFlood       = "fail.flood"       // a flood run broke Messages = 2m or Events = wakes + 2m
	failFingerprint = "fail.fingerprint" // differs from expect.json or from the run's first pass
	failGuard       = "fail.guard"       // a traced sharded cell did not time the untraced program
)

var failNames = []string{failError, failAsleep, failCongest, failUnsolved, failFlood, failFingerprint, failGuard}

// failures lists the seed-free checks c fails; the fingerprint checks
// need other passes and run in the parent (see tally). shards > 1 turns on
// the traced-pass guards: an attached observer would switch the sharded
// engine to record/replay, and a delayer without lookahead would run it
// sequentially — either way the traced pass would time another program.
func (c *cell) failures(traced bool, shards int) []string {
	if c.err != nil {
		return []string{failError}
	}
	r := c.res
	var out []string
	if !r.AllAwake {
		out = append(out, failAsleep)
	}
	if c.kind.congest && r.CongestViolations > 0 {
		out = append(out, failCongest)
	}
	if c.unsolved {
		out = append(out, failUnsolved)
	}
	if c.kind.flood && (r.Messages != 2*r.M || r.Events != len(r.AwakeSet())+2*r.M) {
		out = append(out, failFlood)
	}
	if traced && shards > 1 {
		st := c.rec.Stall()
		if r.Mem == nil || r.Mem.Shards != shards || st.Windows == 0 || st.Tracks[0].ReplayNS != 0 {
			out = append(out, failGuard)
		}
	}
	return out
}

// tally accumulates the output check over every pass of a run.
type tally struct {
	expect    map[string]string // committed fingerprints; nil off the default seed
	first     map[string]string // fingerprints of the run's first pass
	attempted int
	failed    int
	counts    map[string]int
}

func newTally(expect map[string]string) *tally {
	return &tally{expect: expect, counts: make(map[string]int)}
}

// check adds the fingerprint checks to a pass's seed-free ones and counts
// the result. The first pass becomes the reference later passes, traced
// ones included, must reproduce; when expectations are committed, a cell
// missing from them fails too.
func (t *tally) check(o *passOutcome) {
	ref := t.first == nil
	if ref {
		t.first = make(map[string]string, len(o.Cells))
	}
	for _, c := range o.Cells {
		fails := c.Fails
		if c.FP != "" {
			want, ok := t.expect[c.Label]
			if (t.expect != nil && (!ok || want != c.FP)) || (!ref && t.first[c.Label] != c.FP) {
				fails = append(fails, failFingerprint)
			}
			if ref {
				t.first[c.Label] = c.FP
			}
		}
		t.attempted++
		if len(fails) > 0 {
			t.failed++
		}
		for _, f := range fails {
			t.counts[f]++
		}
	}
}
