package registry

import (
	"fmt"
	"testing"

	"asyncagree/internal/sim"
)

// quietRun executes one untraced window-mode run — no OnEvent observer, so
// the columnar gate is free to engage — and returns the summary and the
// final configuration snapshot.
func quietRun(sys *sim.System, plan sim.WindowAdversary, maxWindows int) (sim.RunResult, []string, error) {
	res, err := sys.RunWindows(plan, maxWindows)
	return res, sys.ConfigurationSnapshot(), err
}

// compareQuiet asserts a columnar execution's observables are byte-identical
// to the message-at-a-time reference.
func compareQuiet(t *testing.T, label string,
	lRes sim.RunResult, lSnap []string, lErr error,
	cRes sim.RunResult, cSnap []string, cErr error) {
	t.Helper()
	if (lErr == nil) != (cErr == nil) || (lErr != nil && lErr.Error() != cErr.Error()) {
		t.Fatalf("%s: errors diverged: message %v, columnar %v", label, lErr, cErr)
	}
	if lRes != cRes {
		t.Fatalf("%s: results diverged:\nmessage  %+v\ncolumnar %+v", label, lRes, cRes)
	}
	if len(lSnap) != len(cSnap) {
		t.Fatalf("%s: snapshot lengths diverged: %d vs %d", label, len(lSnap), len(cSnap))
	}
	for i := range lSnap {
		if lSnap[i] != cSnap[i] {
			t.Fatalf("%s: processor %d diverged:\nmessage  %q\ncolumnar %q", label, i, lSnap[i], cSnap[i])
		}
	}
}

// TestColumnarTrialMatchesMessage is the byte-identity contract of the
// columnar vote-tally kernel at the registry level: for every compatible
// (columnar algorithm × adversary × scheduler) triple at the CI smoke-grid
// shape — sizes 12:1 and 48:6, split and ones inputs, two seeds — a columnar
// trial, fresh and recycled, produces exactly the RunResult and final
// configuration of the message-at-a-time path.
func TestColumnarTrialMatchesMessage(t *testing.T) {
	small := Matrix{
		Algorithms: []string{"core", "benor"},
		Sizes:      []Size{{N: 12, T: 1}, {N: 48, T: 6}},
		Inputs:     []string{"split"},
		Seeds:      []uint64{1},
		MaxWindows: 400,
	}
	trials, err := small.allSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) == 0 {
		t.Fatal("smoke grid expanded to no trials")
	}
	for _, ts := range trials {
		ts := ts
		name := fmt.Sprintf("%s_%s_%s_%s", ts.Algorithm, ts.Adversary, ts.Scheduler, ts.Size)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, input := range []string{"split", "ones"} {
				for _, seed := range []uint64{1, 2} {
					label := fmt.Sprintf("%s/seed=%d", input, seed)
					inputs, err := Inputs(input, ts.Size.N, seed)
					if err != nil {
						t.Fatal(err)
					}
					legacy := Params{N: ts.Size.N, T: ts.Size.T, Inputs: inputs, Seed: seed,
						DisableColumnar: true}

					// Message-at-a-time reference execution.
					sys, err := NewSystem(ts.Algorithm, legacy)
					if err != nil {
						t.Fatal(err)
					}
					plan, err := NewScheduledAdversary(ts.Adversary, ts.Scheduler, ts.Algorithm, legacy)
					if err != nil {
						t.Fatal(err)
					}
					if sys.ColumnarPlanned(plan) {
						t.Fatalf("%s: DisableColumnar still planned the columnar path", label)
					}
					lRes, lSnap, lErr := quietRun(sys, plan, ts.maxWindows)

					// Fresh columnar execution.
					p := legacy
					p.DisableColumnar = false
					cSys, err := NewSystem(ts.Algorithm, p)
					if err != nil {
						t.Fatal(err)
					}
					cPlan, err := NewScheduledAdversary(ts.Adversary, ts.Scheduler, ts.Algorithm, p)
					if err != nil {
						t.Fatal(err)
					}
					if !cSys.ColumnarPlanned(cPlan) {
						t.Fatalf("%s: columnar path not planned; the comparison would be vacuous", label)
					}
					cRes, cSnap, cErr := quietRun(cSys, cPlan, ts.maxWindows)
					compareQuiet(t, label+" fresh", lRes, lSnap, lErr, cRes, cSnap, cErr)

					// Recycled columnar execution: dirty a fresh engine with a
					// warm-up trial on another seed/pattern, then rewind it.
					warmInputs, err := Inputs("ones", ts.Size.N, 99)
					if err != nil {
						t.Fatal(err)
					}
					warm := Params{N: ts.Size.N, T: ts.Size.T, Inputs: warmInputs, Seed: 99}
					key := engineKey{alg: ts.Algorithm, adv: ts.Adversary, sched: ts.Scheduler,
						n: ts.Size.N, t: ts.Size.T}
					e, err := newTrialEngine(key, warm)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := e.Run(150); err != nil {
						t.Fatalf("warm-up trial: %v", err)
					}
					if err := e.prepare(p); err != nil {
						t.Fatalf("prepare: %v", err)
					}
					rRes, rSnap, rErr := quietRun(e.sys, e.plan, ts.maxWindows)
					compareQuiet(t, label+" recycled", lRes, lSnap, lErr, rRes, rSnap, rErr)
				}
			}
		})
	}
}

// TestColumnarPlannedExactlyCoreAndBenor pins which algorithms take the
// columnar path: the sim-level capability probe alone decides it, so under
// full delivery every registered algorithm must plan columnar exactly when
// it is core or benor.
func TestColumnarPlannedExactlyCoreAndBenor(t *testing.T) {
	want := map[string]bool{"core": true, "benor": true}
	for _, a := range Algorithms() {
		size := Size{N: 12, T: 1}
		if a.Name == "committee" {
			size = Size{N: 27, T: 3} // the smallest committee grid shape
		}
		p := Params{N: size.N, T: size.T, Inputs: SplitInputs(size.N), Seed: 1}
		sys, err := NewSystem(a.Name, p)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		plan, err := NewScheduledAdversary("full", "adversary", a.Name, p)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if got := sys.ColumnarPlanned(plan); got != want[a.Name] {
			t.Errorf("%s under full: ColumnarPlanned = %t, want %t", a.Name, got, want[a.Name])
		}
	}
}

// TestPaxosNeverPlansColumnar pins the message-path gate for a non-columnar
// algorithm on every adversary and scheduler the sweep grid pairs it with:
// before each window of a run, ColumnarPlanned must stay false.
func TestPaxosNeverPlansColumnar(t *testing.T) {
	m := Matrix{Algorithms: []string{"paxos"}, Sizes: []Size{{N: 12, T: 1}},
		Inputs: []string{"split"}, Seeds: []uint64{1}, MaxWindows: 50}
	trials, err := m.allSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) == 0 {
		t.Fatal("paxos grid expanded to no trials")
	}
	for _, ts := range trials {
		inputs, err := Inputs(ts.Input, ts.Size.N, ts.seed)
		if err != nil {
			t.Fatal(err)
		}
		p := Params{N: ts.Size.N, T: ts.Size.T, Inputs: inputs, Seed: ts.seed}
		sys, err := NewSystem(ts.Algorithm, p)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := NewScheduledAdversary(ts.Adversary, ts.Scheduler, ts.Algorithm, p)
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < ts.maxWindows && !sys.AllDecided(); w++ {
			if sys.ColumnarPlanned(plan) {
				t.Fatalf("paxos/%s/%s: columnar planned before window %d", ts.Adversary, ts.Scheduler, w)
			}
			if err := sys.ApplyWindowWith(plan); err != nil {
				t.Fatalf("paxos/%s/%s: %v", ts.Adversary, ts.Scheduler, err)
			}
		}
	}
}

// TestColumnarKnobExcludedFromIdentity pins the oracle-switch contract:
// DisableColumnar does not change the engine pool key, so pooled engines
// are shared across settings.
func TestColumnarKnobExcludedFromIdentity(t *testing.T) {
	p := Params{N: 12, T: 1, Inputs: SplitInputs(12), Seed: 1}
	pOff := p
	pOff.DisableColumnar = true
	if extraKey(p) != extraKey(pOff) {
		t.Fatalf("engine pool extraKey depends on DisableColumnar")
	}
}
