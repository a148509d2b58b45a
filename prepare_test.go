package riseandshine_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"riseandshine"
)

func marshalResult(t *testing.T, res *riseandshine.Result) []byte {
	t.Helper()
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// TestPrepareRunEquivalence checks the façade's reuse contract over the
// whole registry — advice schemes, synchronous algorithms, asynchronous
// algorithms: one Prepare reused across a seed sweep with a shared engine
// must reproduce the package-level Run byte for byte, digests included.
func TestPrepareRunEquivalence(t *testing.T) {
	g := riseandshine.RandomConnected(60, 0.08, 3)
	ports := riseandshine.RandomPorts(g, 9)
	for _, name := range riseandshine.Algorithms() {
		name := name
		t.Run(name, func(t *testing.T) {
			base := riseandshine.RunConfig{
				Graph:     g,
				Algorithm: name,
				Ports:     ports,
				Options:   riseandshine.Options{GossipRounds: 2000},
			}
			p, err := riseandshine.Prepare(base)
			if err != nil {
				t.Fatalf("Prepare: %v", err)
			}
			eng := &riseandshine.Engine{}
			for seed := int64(1); seed <= 3; seed++ {
				cfg := base
				cfg.Schedule = riseandshine.RandomWake{Count: 3, Seed: 5 * seed}
				cfg.Delays = riseandshine.RandomDelay{Seed: 7}
				cfg.Seed = seed
				cfg.Observer = riseandshine.NewDigestObserver(false)
				direct, err := riseandshine.Run(cfg)
				if err != nil {
					t.Fatalf("seed %d direct: %v", seed, err)
				}
				cfg.Engine = eng
				cfg.Observer = riseandshine.NewDigestObserver(false)
				prepared, err := p.Run(cfg)
				if err != nil {
					t.Fatalf("seed %d prepared: %v", seed, err)
				}
				a, b := marshalResult(t, direct), marshalResult(t, prepared)
				if !bytes.Equal(a, b) {
					t.Fatalf("seed %d: prepared run diverged from direct run\ndirect:   %s\nprepared: %s", seed, a, b)
				}
			}
		})
	}
}

// TestPreparedRunValidation: a Prepared refuses configs that identify a
// different experiment than the one it caches.
func TestPreparedRunValidation(t *testing.T) {
	g := riseandshine.Path(8)
	p, err := riseandshine.Prepare(riseandshine.RunConfig{Graph: g, Algorithm: "flood"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  riseandshine.RunConfig
	}{
		{"graph", riseandshine.RunConfig{Graph: riseandshine.Path(8), Algorithm: "flood"}},
		{"algorithm", riseandshine.RunConfig{Graph: g, Algorithm: "cen"}},
		{"options", riseandshine.RunConfig{Graph: g, Algorithm: "flood", Options: riseandshine.Options{K: 3}}},
		{"ports", riseandshine.RunConfig{Graph: g, Algorithm: "flood", Ports: riseandshine.RandomPorts(g, 1)}},
	} {
		if _, err := p.Run(tc.cfg); err == nil {
			t.Errorf("%s mismatch: expected an error", tc.name)
		}
	}
	// The matching config still runs.
	if _, err := p.Run(riseandshine.RunConfig{Graph: g, Algorithm: "flood"}); err != nil {
		t.Errorf("matching config failed: %v", err)
	}
}
