package sched

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"asyncagree/internal/core"
	"asyncagree/internal/sim"
)

// newCoreSystem builds a core-algorithm system with split inputs, the
// workhorse target the scheduler properties are checked against.
func newCoreSystem(t *testing.T, n, tt int, seed uint64) *sim.System {
	t.Helper()
	th, err := core.DefaultThresholds(n, tt)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]sim.Bit, n)
	for i := range inputs {
		inputs[i] = sim.Bit(i % 2)
	}
	s, err := sim.New(sim.Config{
		N: n, T: tt, Seed: seed, Inputs: inputs,
		NewProcess: core.NewFactory(n, tt, th),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// builders constructs one fresh instance of every scheduler strategy in the
// package (the registry wraps exactly these).
func builders(seed uint64) map[string]func() Scheduler {
	return map[string]func() Scheduler{
		"adversary": func() Scheduler { return AdversaryDriven{} },
		"full":      func() Scheduler { return FullDelivery{} },
		"ascmin":    func() Scheduler { return NewAscendingMinimal() },
		"seeded":    func() Scheduler { return NewSeededRandom(seed) },
		"laggard":   func() Scheduler { return NewLaggard(0, 0) },
		"alternate": func() Scheduler { return NewAlternate() },
	}
}

// snapshotPlan deep-copies a plan (plans are scheduler-owned scratch).
func snapshotPlan(plan [][]sim.ProcID) [][]sim.ProcID {
	if plan == nil {
		return nil
	}
	out := make([][]sim.ProcID, len(plan))
	for i, row := range plan {
		if row != nil {
			out[i] = append([]sim.ProcID(nil), row...)
		}
	}
	return out
}

// TestSchedulersEmitAcceptableWindows is the Definition 1 property test:
// every strategy, at every (n, t) shape of the default sweep grid, plans
// only legal windows — each receiver admits >= n-t distinct in-range
// senders — across enough windows to cross laggard epochs and alternate
// parity, and the windows it plans are accepted by the simulator.
func TestSchedulersEmitAcceptableWindows(t *testing.T) {
	sizes := [][2]int{{12, 1}, {18, 2}, {24, 3}, {27, 3}, {13, 2}, {7, 1}}
	for name, build := range builders(7) {
		for _, nt := range sizes {
			n, tt := nt[0], nt[1]
			t.Run(fmt.Sprintf("%s/%d:%d", name, n, tt), func(t *testing.T) {
				s := newCoreSystem(t, n, tt, 1)
				sch := build()
				for w := 0; w < 40; w++ {
					batch := s.WindowSend()
					plan := sch.PlanSenders(s, batch)
					if plan != nil && len(plan) != n {
						t.Fatalf("window %d: %d rows for n=%d", w, len(plan), n)
					}
					for i, row := range plan {
						if row == nil {
							continue
						}
						distinct := map[sim.ProcID]bool{}
						for _, p := range row {
							if p < 0 || int(p) >= n {
								t.Fatalf("window %d receiver %d: sender %d out of range", w, i, p)
							}
							distinct[p] = true
						}
						if len(distinct) < n-tt {
							t.Fatalf("window %d receiver %d: %d distinct senders < n-t=%d",
								w, i, len(distinct), n-tt)
						}
					}
					if err := s.WindowDeliver(batch, plan); err != nil {
						t.Fatalf("window %d rejected: %v", w, err)
					}
				}
			})
		}
	}
}

// TestSeededRandomReproducible pins the determinism contract: equal seeds
// replay the exact same delivery schedule, and different seeds diverge.
func TestSeededRandomReproducible(t *testing.T) {
	const n, tt, windows = 18, 2, 25
	plansFor := func(seed uint64) [][][]sim.ProcID {
		s := newCoreSystem(t, n, tt, 1)
		sch := NewSeededRandom(seed)
		var plans [][][]sim.ProcID
		for w := 0; w < windows; w++ {
			batch := s.WindowSend()
			plan := sch.PlanSenders(s, batch)
			plans = append(plans, snapshotPlan(plan))
			if err := s.WindowDeliver(batch, plan); err != nil {
				t.Fatal(err)
			}
		}
		return plans
	}
	a, b := plansFor(42), plansFor(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different delivery schedules")
	}
	if reflect.DeepEqual(a, plansFor(43)) {
		t.Fatal("different seeds produced identical delivery schedules")
	}
}

// TestSeededRandomGoldenDigest fixes the seeded scheduler's rows at the
// stall sweep's n=48, t=7 shape, so any change to the sampler or to the
// order of draws fails here by name.
func TestSeededRandomGoldenDigest(t *testing.T) {
	const golden = 0x43d57513bb7aae4b
	s := newCoreSystem(t, 48, 7, 1)
	sch := NewSeededRandom(1)
	h := fnv.New64a()
	var buf []byte
	for w := 0; w < 64; w++ {
		for _, row := range sch.PlanSenders(s, nil) {
			buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(len(row)))
			for _, p := range row {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(p))
			}
			h.Write(buf)
		}
	}
	if got := h.Sum64(); got != golden {
		t.Fatalf("SeededRandom plan digest %#x, want %#x", got, uint64(golden))
	}
}

// TestLaggardRotates asserts the laggard set actually moves through the
// ring: over enough epochs every processor is starved at least once, so the
// discipline is bounded unfairness, not fixed silence.
func TestLaggardRotates(t *testing.T) {
	const n, tt = 18, 2
	s := newCoreSystem(t, n, tt, 1)
	sch := NewLaggard(0, 4)
	starved := map[sim.ProcID]bool{}
	for w := 0; w < 4*(n/tt+1); w++ {
		for _, p := range sch.Starved(n, tt) {
			starved[p] = true
		}
		batch := s.WindowSend()
		plan := sch.PlanSenders(s, batch)
		admitted := map[sim.ProcID]bool{}
		for _, p := range plan[0] {
			admitted[p] = true
		}
		if len(plan[0]) != n-tt {
			t.Fatalf("window %d admits %d senders, want n-k=%d", w, len(plan[0]), n-tt)
		}
		for _, p := range sch.Starved(n, tt) {
			if admitted[p] {
				t.Fatalf("window %d: starved processor %d was admitted", w, p)
			}
		}
		if err := s.WindowDeliver(batch, plan); err != nil {
			t.Fatal(err)
		}
	}
	if len(starved) != n {
		t.Fatalf("only %d/%d processors were ever starved: %v", len(starved), n, starved)
	}
}

// TestComposeIdentity pins the byte-identical default: composing any
// adversary with the AdversaryDriven scheduler (or nil) returns the
// adversary itself, so the pre-scheduler execution path is untouched.
func TestComposeIdentity(t *testing.T) {
	var adv sim.WindowAdversary = stubAdversary{}
	if got := Compose(adv, AdversaryDriven{}); got != adv {
		t.Fatalf("Compose(adv, AdversaryDriven{}) = %T, want the adversary itself", got)
	}
	if got := Compose(adv, nil); got != adv {
		t.Fatalf("Compose(adv, nil) = %T, want the adversary itself", got)
	}
	if got := Compose(adv, FullDelivery{}); got == adv {
		t.Fatal("Compose with a real scheduler must wrap the adversary")
	}
}

// stubAdversary is a minimal WindowAdversary for identity checks.
type stubAdversary struct{}

func (stubAdversary) PlanDelivery(*sim.System, []sim.Message) sim.Window { return sim.Window{} }

// TestComposeKeepsResets asserts the split of responsibilities: the
// scheduler overrides delivery, the adversary keeps its resets.
func TestComposeKeepsResets(t *testing.T) {
	s := newCoreSystem(t, 12, 1, 1)
	adv := resettingAdversary{}
	composed := Compose(adv, NewAscendingMinimal())
	batch := s.WindowSend()
	w := composed.PlanDelivery(s, batch)
	if len(w.Resets) != 1 || w.Resets[0] != 3 {
		t.Fatalf("resets = %v, want the adversary's [3]", w.Resets)
	}
	if w.Senders == nil || len(w.Senders[0]) != 11 {
		t.Fatalf("senders = %v, want the scheduler's n-t ascending set", w.Senders)
	}
}

// resettingAdversary plans full delivery plus one fixed reset.
type resettingAdversary struct{}

func (resettingAdversary) PlanDelivery(*sim.System, []sim.Message) sim.Window {
	return sim.Window{Resets: []sim.ProcID{3}}
}
