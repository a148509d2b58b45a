package metrics_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"riseandshine/internal/core"
	"riseandshine/internal/graph"
	"riseandshine/internal/metrics"
	"riseandshine/internal/sim"
)

// TestObserverMatchesResult: the metrics observer's counters agree with the
// engine's own accounting on every axis both record.
func TestObserverMatchesResult(t *testing.T) {
	g := graph.RandomConnected(60, 0.08, rand.New(rand.NewSource(21)))
	reg := metrics.NewRegistry()
	obs := metrics.NewObserver(reg, g.N())
	res, err := sim.RunAsync(sim.Config{
		Graph: g,
		Model: sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Local},
		Adversary: sim.Adversary{
			Schedule: sim.RandomWake{Count: 3, Seed: 22},
			Delays:   sim.RandomDelay{Seed: 23},
		},
		Observer: obs,
	}, core.Flood{})
	if err != nil {
		t.Fatal(err)
	}

	value := func(name string) uint64 { return reg.NewCounter(name, "").Value() }
	adv, msg := value(metrics.MetricWakesAdversarial), value(metrics.MetricWakesMessage)
	if int(adv+msg) != res.AwakeCount {
		t.Errorf("observer wakes adv=%d msg=%d, Result.AwakeCount = %d", adv, msg, res.AwakeCount)
	}
	advCount := 0
	for _, a := range res.AdversaryWoken {
		if a {
			advCount++
		}
	}
	if int(adv) != advCount {
		t.Errorf("observer adversarial wakes = %d, Result says %d", adv, advCount)
	}
	if int(value(metrics.MetricSends)) != res.Messages {
		t.Errorf("observer sends = %d, Result.Messages = %d", value(metrics.MetricSends), res.Messages)
	}
	if int(value(metrics.MetricDeliveries)) != res.Messages {
		t.Errorf("observer deliveries = %d, want %d (every message delivered)", value(metrics.MetricDeliveries), res.Messages)
	}
	if int64(value(metrics.MetricMessageBits)) != res.MessageBits {
		t.Errorf("observer bits = %d, Result.MessageBits = %d", value(metrics.MetricMessageBits), res.MessageBits)
	}

	snap := reg.Snapshot()
	for _, h := range snap.Histograms {
		switch h.Name {
		case metrics.MetricSendBits:
			if int(h.Count) != res.Messages {
				t.Errorf("send-bits histogram count = %d, want %d", h.Count, res.Messages)
			}
			if int64(h.Sum) != res.MessageBits {
				t.Errorf("send-bits histogram sum = %g, want %d", h.Sum, res.MessageBits)
			}
		case metrics.MetricWakeTime:
			if int(h.Count) != res.AwakeCount {
				t.Errorf("wake-time histogram count = %d, want %d", h.Count, res.AwakeCount)
			}
		}
	}
}

// TestObserverFrontier: on a unit-delay flood the frontier time series is
// monotone in time and awake fraction, ends fully awake with nothing in
// flight, and the gauges agree with the final point.
func TestObserverFrontier(t *testing.T) {
	g := graph.Path(50)
	reg := metrics.NewRegistry()
	obs := metrics.NewObserver(reg, g.N())
	if _, err := sim.RunAsync(sim.Config{
		Graph:     g,
		Model:     sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Local},
		Adversary: sim.Adversary{Schedule: sim.WakeSingle(0)},
		Observer:  obs,
	}, core.Flood{}); err != nil {
		t.Fatal(err)
	}
	pts := obs.Frontier()
	if len(pts) == 0 {
		t.Fatal("empty frontier")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].At < pts[i-1].At {
			t.Fatalf("frontier times regress at %d: %v after %v", i, pts[i], pts[i-1])
		}
		if pts[i].AwakeFrac < pts[i-1].AwakeFrac {
			t.Fatalf("awake fraction regresses at %d: %v after %v", i, pts[i], pts[i-1])
		}
		if pts[i].InFlight < 0 {
			t.Fatalf("negative in-flight at %d: %v", i, pts[i])
		}
	}
	last := pts[len(pts)-1]
	if last.AwakeFrac != 1 || last.InFlight != 0 {
		t.Errorf("final frontier point %+v, want fully awake with empty channels", last)
	}
	if got := reg.NewGauge(metrics.MetricAwakeFraction, "").Value(); got != 1 {
		t.Errorf("awake-fraction gauge = %g, want 1", got)
	}
	if got := reg.NewGauge(metrics.MetricInFlight, "").Value(); got != 0 {
		t.Errorf("in-flight gauge = %g, want 0", got)
	}
	// Sampling is bounded by the unit grid: a 50-node unit-delay path
	// floods in 49 τ, so one point per cell plus the wake updates stays
	// well under the event count (~2 per τ cell).
	if len(pts) > 2*50 {
		t.Errorf("frontier has %d points — sampling is not collapsing per cell", len(pts))
	}
}

// TestObserverDeterministic: two identical runs produce byte-identical
// metric snapshots and identical frontier series.
func TestObserverDeterministic(t *testing.T) {
	run := func() (string, []metrics.FrontierPoint) {
		g := graph.RandomConnected(40, 0.1, rand.New(rand.NewSource(31)))
		reg := metrics.NewRegistry()
		obs := metrics.NewObserver(reg, g.N())
		if _, err := sim.RunAsync(sim.Config{
			Graph: g,
			Model: sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Local},
			Adversary: sim.Adversary{
				Schedule: sim.RandomWake{Count: 2, Seed: 32},
				Delays:   sim.RandomDelay{Seed: 33},
			},
			Observer: obs,
		}, core.Flood{}); err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if err := reg.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), obs.Frontier()
	}
	jsonA, frontA := run()
	jsonB, frontB := run()
	if jsonA != jsonB {
		t.Errorf("snapshot JSON differs between identical runs:\n%s%s", jsonA, jsonB)
	}
	if !reflect.DeepEqual(frontA, frontB) {
		t.Error("frontier series differs between identical runs")
	}
}

// TestObserverSyncEngine: the same observer works on the synchronous
// engine, where engine time is the round number.
func TestObserverSyncEngine(t *testing.T) {
	g := graph.Star(8)
	reg := metrics.NewRegistry()
	obs := metrics.NewObserver(reg, g.N())
	res, err := sim.RunSync(sim.Config{
		Graph:     g,
		Model:     sim.Model{Knowledge: sim.KT0, Bandwidth: sim.Local},
		Adversary: sim.Adversary{Schedule: sim.WakeSingle(1)}, // a leaf: wake center in round 1, leaves in round 2
		Observer:  obs,
	}, sim.AsSync(core.Flood{}))
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.NewCounter(metrics.MetricSends, "").Value(); int(got) != res.Messages {
		t.Errorf("sync observer sends = %d, Result.Messages = %d", got, res.Messages)
	}
	if adv := reg.NewCounter(metrics.MetricWakesAdversarial, "").Value(); adv != 1 {
		t.Errorf("sync observer adversarial wakes = %d, want 1", adv)
	}
	last := obs.Frontier()[len(obs.Frontier())-1]
	if last.AwakeFrac != 1 {
		t.Errorf("sync frontier ends at awake fraction %g, want 1", last.AwakeFrac)
	}
}
