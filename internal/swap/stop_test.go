package swap

import (
	"reflect"
	"testing"

	"nullgraph/internal/obs"
	"nullgraph/internal/par"
)

// TestRunStopPreTripped: a tripped flag ends the run before the first
// iteration with Stopped set and the edge list untouched.
func TestRunStopPreTripped(t *testing.T) {
	el := ring(512)
	orig := ring(512)
	stop := &par.Stop{}
	stop.Set()
	res := Run(el, Options{Iterations: 10, Workers: 2, Seed: 1, Stop: stop})
	if !res.Stopped {
		t.Fatal("pre-tripped stop: Result.Stopped is false")
	}
	if len(res.PerIteration) != 0 {
		t.Fatalf("pre-tripped stop ran %d iterations", len(res.PerIteration))
	}
	for i := range orig.Edges {
		if el.Edges[i] != orig.Edges[i] {
			t.Fatalf("pre-tripped stop mutated edge %d", i)
		}
	}
}

// TestRunStopUntrippedBitIdentical: polling must not change the chain
// at Workers=1, with or without a recorder attached (instrumented runs
// poll inside their loops too), and must not change the report.
func TestRunStopUntrippedBitIdentical(t *testing.T) {
	for _, instrumented := range []bool{false, true} {
		var recA, recB *obs.Recorder
		if instrumented {
			recA, recB = obs.NewRecorder(), obs.NewRecorder()
		}
		a := ring(2048)
		Run(a, Options{Iterations: 6, Workers: 1, Seed: 9, Recorder: recA})
		b := ring(2048)
		res := Run(b, Options{Iterations: 6, Workers: 1, Seed: 9, Recorder: recB, Stop: &par.Stop{}})
		if res.Stopped {
			t.Fatalf("instrumented=%v: untripped stop reported Stopped", instrumented)
		}
		for i := range a.Edges {
			if a.Edges[i] != b.Edges[i] {
				t.Fatalf("instrumented=%v: stop polling changed the chain at edge %d", instrumented, i)
			}
		}
		if instrumented && !reflect.DeepEqual(recA.Report(), recB.Report()) {
			t.Errorf("stop polling changed the run report:\n%+v\n%+v", recA.Report(), recB.Report())
		}
	}
}

// TestStepAfterMidIterationStop: an interrupted iteration must restore
// the hash table so the next Step behaves like a clean one. The
// mid-iteration path is exercised deterministically by tripping the
// flag between Steps (phase boundaries are a superset of the in-loop
// polls' behavior: both leave the table cleared).
func TestStepAfterMidIterationStop(t *testing.T) {
	el := ring(1024)
	degrees := degreesOf(el)
	eng := NewEngine(el, Options{Workers: 2, Seed: 4})
	defer eng.Close()
	eng.Step()

	stop := &par.Stop{}
	stop.Set()
	eng.SetStop(stop)
	if stats, stopped := eng.step(); !stopped || stats.Successes != 0 {
		t.Fatalf("tripped step: stopped=%v stats=%+v", stopped, stats)
	}

	// Clear the flag and keep going: invariants must hold.
	eng.SetStop(nil)
	for i := 0; i < 4; i++ {
		eng.Step()
	}
	if !equalInt64(degrees, degreesOf(el)) {
		t.Fatal("degree sequence broken after an interrupted iteration")
	}
	if rep := el.CheckSimplicity(); !rep.IsSimple() {
		t.Fatalf("graph not simple after an interrupted iteration: %+v", rep)
	}
}
