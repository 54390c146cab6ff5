package main

import (
	"reflect"
	"testing"

	"wbsim/internal/experiments"
	"wbsim/internal/workload"
)

// The traced loop rebuilds System.Run from exported parts. If System.Run
// changes and the rebuild does not follow, the per-layer numbers would
// describe a different loop; these tests fail first.

func TestTracedLoopMatchesRun(t *testing.T) {
	for _, j := range append(append([]simJob(nil), simPrivate...), simShared...) {
		t.Run(j.key(), func(t *testing.T) {
			w, ok := workload.Get(j.Workload)
			if !ok {
				t.Fatalf("unknown workload %q", j.Workload)
			}
			cfg := simConfig(j.Variant, 1)
			plain, _, err := buildSystem(w, cfg, simScale)
			if err != nil {
				t.Fatal(err)
			}
			traced, _, err := buildSystem(w, cfg, simScale)
			if err != nil {
				t.Fatal(err)
			}
			wantCycles, wantErr := plain.Run()
			var layers loopLayers
			gotCycles, gotErr := tracedRun(traced, &layers)
			if gotCycles != wantCycles || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("tracedRun = (%d, %v), System.Run = (%d, %v)", gotCycles, gotErr, wantCycles, wantErr)
			}
			want, got := plain.Collect(), traced.Collect()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("traced results differ from System.Run's:\ntraced %+v\nrun    %+v", got, want)
			}
			if layers.stepped+layers.skipped != uint64(got.Cycles) {
				t.Errorf("stepped %d + skipped %d cycles, run took %d", layers.stepped, layers.skipped, got.Cycles)
			}
		})
	}
}

func TestTracedSweepMatchesFig9(t *testing.T) {
	if testing.Short() {
		t.Skip("two full Figure 9 sweeps")
	}
	sw := tracedSweep(1)
	if sw.err != nil {
		t.Fatal(sw.err)
	}
	want, err := experiments.NewEngine(fig9Parallel).Fig9(fig9Options(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := sw.table.String(); got != want.String() {
		t.Fatalf("traced sweep table:\n%s\nEngine.Fig9 table:\n%s", got, want)
	}
}
